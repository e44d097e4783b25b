// Global invariants: bit-for-bit determinism of the whole simulator (same
// inputs → same virtual time and stats), and conservation of page frames
// and swap slots across heavy churn.
#include <gtest/gtest.h>

#include "src/harness/world.h"
#include "src/kern/workloads.h"
#include "src/sim/rng.h"

namespace {

using harness::VmKind;
using harness::World;
using harness::WorldConfig;

// Drive a mixed workload; returns (virtual ns, faults, swap ops).
std::tuple<sim::Nanoseconds, std::uint64_t, std::uint64_t> RunMixed(VmKind kind,
                                                                    std::uint64_t seed) {
  WorldConfig cfg;
  cfg.ram_pages = 512;
  World w(kind, cfg);
  sim::Rng rng(seed);
  w.fs.CreateFilePattern("/mix", 32 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr file_va = 0;
  kern::MapAttrs shared;
  shared.shared = true;
  EXPECT_EQ(sim::kOk,
            w.kernel->Mmap(p, &file_va, 32 * sim::kPageSize, "/mix", 0, shared));
  sim::Vaddr anon_va = 0;
  EXPECT_EQ(sim::kOk, w.kernel->MmapAnon(p, &anon_va, 64 * sim::kPageSize, kern::MapAttrs{}));
  kern::Proc* c = nullptr;
  for (int i = 0; i < 300; ++i) {
    switch (rng.Below(5)) {
      case 0:
        w.kernel->TouchWrite(p, anon_va + rng.Below(64) * sim::kPageSize, 1,
                             static_cast<std::byte>(rng.Below(256)));
        break;
      case 1:
        w.kernel->TouchRead(p, file_va + rng.Below(32) * sim::kPageSize, 1);
        break;
      case 2:
        if (c == nullptr) {
          c = w.kernel->Fork(p);
        } else {
          w.kernel->TouchWrite(c, anon_va + rng.Below(64) * sim::kPageSize, 1, std::byte{7});
        }
        break;
      case 3:
        w.vm->PageDaemon(w.pm.free_pages() + rng.Range(4, 32));
        break;
      case 4:
        w.kernel->TouchWrite(p, file_va + rng.Below(32) * sim::kPageSize, 1,
                             static_cast<std::byte>(rng.Below(256)));
        break;
    }
  }
  if (c != nullptr) {
    w.kernel->Exit(c);
  }
  return {w.machine.clock().now(), w.machine.stats().faults, w.machine.stats().swap_ops};
}

TEST(DeterminismTest, IdenticalRunsProduceIdenticalTimeAndStats) {
  for (VmKind kind : {VmKind::kBsd, VmKind::kUvm}) {
    auto a = RunMixed(kind, 99);
    auto b = RunMixed(kind, 99);
    EXPECT_EQ(a, b) << harness::VmKindName(kind);
    auto c = RunMixed(kind, 100);
    EXPECT_NE(std::get<0>(a), std::get<0>(c)) << "different seeds should diverge";
  }
}

TEST(DeterminismTest, WorkloadTablesAreStableAcrossRepeats) {
  for (int i = 0; i < 2; ++i) {
    World w(VmKind::kUvm);
    kern::BootSingleUser(*w.kernel);
    EXPECT_EQ(26u, w.kernel->TotalMapEntries());
  }
}

class ConservationTest : public ::testing::TestWithParam<VmKind> {};

TEST_P(ConservationTest, FramesAndSlotsConservedAcrossChurn) {
  WorldConfig cfg;
  cfg.ram_pages = 256;
  World w(GetParam(), cfg);
  std::size_t free0 = w.pm.free_pages();
  std::size_t swap0 = w.swap.used_slots();
  sim::Rng rng(5);
  for (int round = 0; round < 5; ++round) {
    kern::Proc* p = w.kernel->Spawn();
    sim::Vaddr a = 0;
    ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 200 * sim::kPageSize, kern::MapAttrs{}));
    for (int i = 0; i < 200; ++i) {
      w.kernel->TouchWrite(p, a + i * sim::kPageSize, 1, std::byte{1});
    }
    kern::Proc* c = w.kernel->Fork(p);
    w.kernel->TouchWrite(c, a, 50 * sim::kPageSize, std::byte{2});
    w.kernel->Exit(c);
    w.kernel->Exit(p);
    // Every frame and every swap slot must come back after teardown.
    EXPECT_EQ(free0, w.pm.free_pages()) << "round " << round;
    EXPECT_EQ(swap0, w.swap.used_slots()) << "round " << round;
    w.CheckInvariants();
  }
}

TEST_P(ConservationTest, QueueAccountingSumsToTotal) {
  WorldConfig cfg;
  cfg.ram_pages = 128;
  World w(GetParam(), cfg);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 100 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 100 * sim::kPageSize, std::byte{1});
  w.vm->PageDaemon(40);
  // free + active + inactive <= total (the rest are wired/unqueued).
  EXPECT_LE(w.pm.free_pages() + w.pm.active_pages() + w.pm.inactive_pages(),
            w.pm.total_pages());
  EXPECT_GE(w.pm.free_pages(), 1u);
}

INSTANTIATE_TEST_SUITE_P(BothVms, ConservationTest,
                         ::testing::Values(VmKind::kBsd, VmKind::kUvm),
                         [](const ::testing::TestParamInfo<VmKind>& param_info) {
                           return harness::VmKindName(param_info.param);
                         });

}  // namespace
