// sim::RetryWithBackoff unit tests: the shared bounded retry-with-backoff
// schedule used by both VMs' allocation paths, the kernel's fault-recovery
// path, the pageout-retry loops, and poison refetch. The charge sequence
// (backoff_ns << attempt before each metered re-attempt) is load-bearing —
// it is what keeps the refactored callers byte-identical to the loops they
// replaced — so the tests pin it against the virtual clock.
#include <gtest/gtest.h>

#include <vector>

#include "src/sim/machine.h"
#include "src/sim/retry.h"

namespace {

TEST(RetryTest, StopsAtFirstSuccessAndCountsMeteredAttempts) {
  sim::Machine m;
  std::uint64_t counter = 0;
  int calls = 0;
  std::vector<int> recover_args;
  bool ok = sim::RetryWithBackoff(
      m, {5, 100, &counter}, [&] { return ++calls == 3; },
      [&](int i) { recover_args.push_back(i); });
  EXPECT_TRUE(ok);
  EXPECT_EQ(3, calls);
  EXPECT_EQ(3u, counter);
  EXPECT_EQ((std::vector<int>{0, 1, 2}), recover_args);
  // Charges double per attempt: 100 + 200 + 400.
  EXPECT_EQ(700, m.clock().now());
}

TEST(RetryTest, ExhaustedScheduleReturnsFalse) {
  sim::Machine m;
  std::uint64_t counter = 0;
  bool ok = sim::RetryWithBackoff(m, {4, 10, &counter}, [] { return false; }, [](int) {});
  EXPECT_FALSE(ok);
  EXPECT_EQ(4u, counter);
  // 10 + 20 + 40 + 80.
  EXPECT_EQ(150, m.clock().now());
}

TEST(RetryTest, ZeroRetriesIsAFreeNoOp) {
  sim::Machine m;
  std::uint64_t counter = 0;
  int calls = 0;
  bool ok = sim::RetryWithBackoff(m, {0, 1000, &counter}, [&] { ++calls; return true; },
                                  [](int) {});
  EXPECT_FALSE(ok);  // op never attempted: the caller owns the initial tries
  EXPECT_EQ(0, calls);
  EXPECT_EQ(0u, counter);
  EXPECT_EQ(0, m.clock().now());
}

TEST(RetryTest, NullCounterCountsNothing) {
  sim::Machine m;
  int calls = 0;
  bool ok = sim::RetryWithBackoff(m, {2, 5, nullptr}, [&] { return ++calls == 2; }, [](int) {});
  EXPECT_TRUE(ok);
  EXPECT_EQ(2, calls);
  EXPECT_EQ(15, m.clock().now());  // 5 + 10
}

TEST(RetryTest, RecoverRunsBeforeEachAttempt) {
  sim::Machine m;
  bool recovered = false;
  bool ok = sim::RetryWithBackoff(
      m, {1, 1, nullptr}, [&] { return recovered; }, [&](int) { recovered = true; });
  EXPECT_TRUE(ok) << "recover must run before the attempt it precedes";
}

TEST(RetryTest, PageoutIoRetriesOnlyTransientErrorsAfterAFreeFirstTry) {
  sim::Machine m;
  const sim::Nanoseconds backoff = m.cost().io_retry_backoff_ns;
  std::vector<int> results = {sim::kErrIO, sim::kErrIO, sim::kErrNoSwap, sim::kOk};
  std::size_t calls = 0;
  int err = sim::RetryPageoutIo(m, 5, [&] { return results[calls++]; });
  // Two EIOs retried, then a non-I/O error ends the schedule.
  EXPECT_EQ(sim::kErrNoSwap, err);
  EXPECT_EQ(3u, calls);
  EXPECT_EQ(2u, m.stats().pageout_retries);
  EXPECT_EQ(backoff + 2 * backoff, m.clock().now());

  sim::Machine fresh;
  calls = 0;
  EXPECT_EQ(sim::kOk, sim::RetryPageoutIo(fresh, 5, [&] { return results[3 + calls++]; }));
  EXPECT_EQ(0u, fresh.stats().pageout_retries);
  EXPECT_EQ(0, fresh.clock().now());
}

}  // namespace
