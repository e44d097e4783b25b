// Shared bounded retry-with-backoff (DESIGN.md §12/§13). PR 5 grew three
// structurally identical loops — the two VMs' allocation paths and the
// kernel's fault-recovery path — each counting a Stats retry counter,
// charging a doubling virtual-time backoff, running a recovery action
// (usually a pagedaemon pass) and re-attempting. This header is the single
// copy; poison re-fetch and the pageout retry paths reuse it instead of
// adding more; RetryPageoutIo is the one pageout-I/O schedule built on it.
#ifndef SRC_SIM_RETRY_H_
#define SRC_SIM_RETRY_H_

#include <cstdint>

#include "src/sim/machine.h"
#include "src/sim/types.h"

namespace sim {

// One retry schedule: up to `max_retries` metered re-attempts, the i-th
// preceded by a charge of backoff_ns << i. `counter` (usually a Stats
// field) is bumped once per metered attempt; nullptr counts nothing.
struct RetryPolicy {
  int max_retries = 0;
  Nanoseconds backoff_ns = 0;
  std::uint64_t* counter = nullptr;
};

// Run the metered retry schedule: for each attempt i in [0, max_retries),
// bump the counter, charge backoff_ns << i, run recover(i) (the caller's
// recovery action — a pagedaemon pass, a re-fetch setup, or nothing), then
// re-attempt op(). Returns true as soon as op() succeeds; false when the
// schedule is exhausted. The caller performs the initial (free) attempts
// itself, so the charge sequence of the pre-existing loops is preserved
// exactly.
template <typename Op, typename Recover>
bool RetryWithBackoff(Machine& machine, const RetryPolicy& policy, Op&& op, Recover&& recover) {
  for (int attempt = 0; attempt < policy.max_retries; ++attempt) {
    if (policy.counter != nullptr) {
      ++*policy.counter;
    }
    machine.Charge(policy.backoff_ns << attempt);
    recover(attempt);
    if (op()) {
      return true;
    }
  }
  return false;
}

// Every pageout write — the pagedaemons' runs and the terminate-time
// flushes of both VMs — uses this schedule: make the first attempt, then
// while it fails with kErrIO retry up to `max_retries` times with doubling
// io_retry_backoff_ns, counting Stats::pageout_retries. Returns the last
// attempt's result.
template <typename Op>
int RetryPageoutIo(Machine& machine, int max_retries, Op&& op) {
  int err = op();
  if (err == kErrIO) {
    RetryWithBackoff(
        machine,
        {max_retries, machine.cost().io_retry_backoff_ns, &machine.stats().pageout_retries},
        [&] { return (err = op()) != kErrIO; }, [](int) {});
  }
  return err;
}

}  // namespace sim

#endif  // SRC_SIM_RETRY_H_
