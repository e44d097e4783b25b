// Integrity soak under injected I/O faults: randomized anonymous-memory
// workloads (mmap, write, read-verify, fork, exit, pagedaemon pressure) run
// on both VM systems while the fault injector fails swap I/O underneath the
// pagers. The workload is checked against the reference model
// (tests/ref_model.h) — every read, and a final whole-page sweep — and VM
// invariants are verified throughout, so any recovery path that corrupts or
// loses a page fails the test. Everything is driven by seeded RNGs and the
// virtual clock, so each scenario (including the fault sequence) is exactly
// reproducible.
#include <gtest/gtest.h>

#include <sstream>

#include "src/harness/dump.h"
#include "src/harness/world.h"
#include "src/sim/rng.h"
#include "tests/ref_model.h"

namespace {

using harness::VmKind;
using harness::World;
using harness::WorldConfig;

// Counters compared between runs for the determinism property.
struct SoakOutcome {
  std::uint64_t io_errors_injected = 0;
  std::uint64_t pagein_errors = 0;
  std::uint64_t pageout_retries = 0;
  std::uint64_t pageout_drops = 0;
  std::uint64_t bad_slots_remapped = 0;
  std::uint64_t faults = 0;
  std::uint64_t swap_ops = 0;
  sim::Nanoseconds virtual_ns = 0;

  bool operator==(const SoakOutcome&) const = default;
};

std::string Describe(const World& w) {
  std::ostringstream os;
  kern::DumpRecoveryStats(os, w.machine);
  return os.str();
}

// Runs the soak workload on one freshly built world with `plan` installed
// on the swap disk. All assertions (model match, invariants) fire inside.
SoakOutcome RunSoak(VmKind kind, const sim::FaultPlan& plan, std::uint64_t seed) {
  WorldConfig cfg;
  cfg.ram_pages = 256;  // 1 MB: heavy paging against the swap device
  cfg.swap_slots = 8192;
  World w(kind, cfg);
  w.machine.faults().Reseed(seed * 0x9e37 + 1);
  w.machine.faults().SetPlan(sim::IoDevice::kSwapDisk, plan);
  sim::Rng rng(seed);
  refmodel::Model m(w);
  EXPECT_TRUE(m.Spawn());

  for (int op = 0; op < 900; ++op) {
    refmodel::Space& s = m.procs[rng.Below(m.procs.size())];
    switch (rng.Below(10)) {
      case 0:  // mmap a fresh anonymous region
        EXPECT_TRUE(m.MmapAnon(s, rng.Range(1, 16))) << Describe(w);
        break;
      case 1:
      case 2:
      case 3:
      case 4:  // write one byte, at an offset derived from it
        if (auto va = m.PickPage(s, rng)) {
          // Spread over the page: were every write at byte 0, each page
          // would be zero elsewhere, and a copy-on-write fault that skipped
          // the copy would still read back right.
          const std::uint64_t value = rng.Below(256);
          EXPECT_TRUE(m.Write(s, *va, static_cast<std::byte>(value), value * 16)) << Describe(w);
        }
        break;
      case 5:
      case 6:
        if (auto va = m.PickPage(s, rng)) {
          EXPECT_TRUE(m.Check(s, *va)) << Describe(w);
        }
        break;
      case 7:
        if (m.procs.size() < 4) {
          EXPECT_TRUE(m.Fork(s));
        }
        break;
      case 8:  // exit (keep at least one process)
        if (m.procs.size() > 1) {
          m.Exit(rng.Below(m.procs.size()));
        }
        break;
      case 9:  // memory pressure: pageouts run into the fault plan here
        w.vm->PageDaemon(w.pm.free_pages() + rng.Range(16, 64));
        w.CheckInvariants();  // every recovery leaves a sound system
        break;
    }
    if (op % 64 == 63) {
      w.vm->PageDaemon(48);  // steady background pressure
      w.CheckInvariants();
    }
  }
  EXPECT_TRUE(m.CheckAll()) << Describe(w);
  w.CheckInvariants();

  const sim::Stats& s = w.machine.stats();
  return SoakOutcome{s.io_errors_injected, s.pagein_errors, s.pageout_retries,
                     s.pageout_drops,      s.bad_slots_remapped, s.faults,
                     s.swap_ops,           w.machine.clock().now()};
}

class SoakTest : public ::testing::TestWithParam<VmKind> {};

// Transient write faults on the swap disk: every pageout has a 1-in-8
// chance of failing once. The pagedaemon's retry/backoff path must absorb
// all of it with zero user-visible damage.
TEST_P(SoakTest, TransientSwapWriteFaultsRecoverWithoutDataLoss) {
  sim::FaultPlan plan;
  plan.write_num = 1;
  plan.write_den = 8;
  SoakOutcome out = RunSoak(GetParam(), plan, /*seed=*/101);
  EXPECT_GT(out.io_errors_injected, 0u);
  EXPECT_GT(out.pageout_retries, 0u) << "workload never exercised the retry path";
  EXPECT_EQ(0u, out.bad_slots_remapped);  // transient-only plan
  EXPECT_EQ(0u, out.pageout_drops);  // transient faults never lose pages
}

// Permanent slot failures (half of injected write faults) force bad-block
// remapping: the swap layer retires the slot and moves the cluster, and the
// workload must still complete byte-exact.
TEST_P(SoakTest, PermanentSwapFaultsRemapWithoutDataLoss) {
  sim::FaultPlan plan;
  plan.write_num = 1;
  plan.write_den = 12;
  plan.permanent_num = 1;
  plan.permanent_den = 2;
  SoakOutcome out = RunSoak(GetParam(), plan, /*seed=*/202);
  EXPECT_GT(out.io_errors_injected, 0u);
  EXPECT_GT(out.bad_slots_remapped, 0u) << "workload never exercised remapping";
  // Permanent swap faults are recovered by remapping, never by dropping:
  // the byte-exact final sweep above is only honest if nothing was lost.
  EXPECT_EQ(0u, out.pageout_drops);
}

// Same seed + same plan => bit-identical behaviour, including the fault
// sequence, every counter, and the virtual clock.
TEST_P(SoakTest, SameSeedAndPlanAreDeterministic) {
  sim::FaultPlan plan;
  plan.write_num = 1;
  plan.write_den = 10;
  plan.permanent_num = 1;
  plan.permanent_den = 3;
  SoakOutcome a = RunSoak(GetParam(), plan, /*seed=*/303);
  SoakOutcome b = RunSoak(GetParam(), plan, /*seed=*/303);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.io_errors_injected, 0u);
}

INSTANTIATE_TEST_SUITE_P(BothVms, SoakTest, ::testing::Values(VmKind::kBsd, VmKind::kUvm),
                         refmodel::VmName);

}  // namespace
