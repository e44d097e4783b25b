// Wiring tests (§3.2): mlock fragments the map under both systems; the
// transient cases (sysctl, physio) fragment only under BSD VM because UVM
// records the wired state outside the map; wired pages survive memory
// pressure.
#include <gtest/gtest.h>

#include "src/harness/world.h"
#include "tests/ref_model.h"

namespace {

using harness::VmKind;
using harness::World;
using harness::WorldConfig;

class WiringTest : public ::testing::TestWithParam<VmKind> {};

TEST_P(WiringTest, MlockFragmentsTheMapInBothSystems) {
  World w(GetParam());
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 8 * sim::kPageSize, kern::MapAttrs{}));
  std::size_t before = p->as->EntryCount();
  ASSERT_EQ(sim::kOk, w.kernel->Mlock(p, a + 2 * sim::kPageSize, 2 * sim::kPageSize));
  EXPECT_EQ(before + 2, p->as->EntryCount());
  // Unlocking does not reassemble the entries (neither system tries).
  ASSERT_EQ(sim::kOk, w.kernel->Munlock(p, a + 2 * sim::kPageSize, 2 * sim::kPageSize));
  EXPECT_EQ(before + 2, p->as->EntryCount());
}

TEST_P(WiringTest, MlockMakesPagesResidentAndWired) {
  World w(GetParam());
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 4 * sim::kPageSize, kern::MapAttrs{}));
  ASSERT_EQ(sim::kOk, w.kernel->Mlock(p, a, 4 * sim::kPageSize));
  for (int i = 0; i < 4; ++i) {
    auto pte = p->as->pmap().Extract(a + i * sim::kPageSize);
    ASSERT_TRUE(pte.has_value());
    EXPECT_TRUE(pte->wired);
    EXPECT_GT(w.pm.PageAt(pte->pfn)->wire_count, 0);
  }
  EXPECT_EQ(4u, p->as->pmap().wired_count());
}

TEST_P(WiringTest, WiredPagesSurviveMemoryPressure) {
  WorldConfig cfg;
  cfg.ram_pages = 96;
  World w(GetParam(), cfg);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr locked = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &locked, 8 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, locked, 8 * sim::kPageSize, std::byte{0x77});
  ASSERT_EQ(sim::kOk, w.kernel->Mlock(p, locked, 8 * sim::kPageSize));
  // Blow through memory with another allocation.
  sim::Vaddr hog = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &hog, 160 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, hog, 160 * sim::kPageSize, std::byte{0x10});
  // The locked pages never left memory: still mapped, no fault needed.
  std::uint64_t faults = w.machine.stats().faults;
  for (int i = 0; i < 8; ++i) {
    std::vector<std::byte> b(1);
    ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, locked + i * sim::kPageSize, b));
    EXPECT_EQ(std::byte{0x77}, b[0]);
  }
  EXPECT_EQ(faults, w.machine.stats().faults);
}

TEST_P(WiringTest, UnlockedPagesBecomeReclaimable) {
  WorldConfig cfg;
  cfg.ram_pages = 96;
  World w(GetParam(), cfg);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 8 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 8 * sim::kPageSize, std::byte{0x42});
  ASSERT_EQ(sim::kOk, w.kernel->Mlock(p, a, 8 * sim::kPageSize));
  ASSERT_EQ(sim::kOk, w.kernel->Munlock(p, a, 8 * sim::kPageSize));
  sim::Vaddr hog = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &hog, 160 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, hog, 160 * sim::kPageSize, std::byte{0x10});
  // At least some of the unlocked pages were paged out...
  EXPECT_GT(w.machine.stats().swap_pages_out, 0u);
  // ...and still read back correctly.
  std::vector<std::byte> b(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a, b));
  EXPECT_EQ(std::byte{0x42}, b[0]);
}

TEST_P(WiringTest, MlockOfUnmappedRangeFails) {
  World w(GetParam());
  kern::Proc* p = w.kernel->Spawn();
  EXPECT_EQ(sim::kErrFault, w.kernel->Mlock(p, 0x4000'0000, sim::kPageSize));
}

TEST(WiringDivergenceTest, SysctlFragmentsOnlyBsd) {
  for (VmKind kind : {VmKind::kBsd, VmKind::kUvm}) {
    World w(kind);
    kern::Proc* p = w.kernel->Spawn();
    sim::Vaddr a = 0;
    ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 8 * sim::kPageSize, kern::MapAttrs{}));
    std::size_t before = p->as->EntryCount();
    ASSERT_EQ(sim::kOk, w.kernel->Sysctl(p, a + 3 * sim::kPageSize, sim::kPageSize));
    if (kind == VmKind::kBsd) {
      EXPECT_EQ(before + 2, p->as->EntryCount()) << "BSD vslock clips the map";
    } else {
      EXPECT_EQ(before, p->as->EntryCount()) << "UVM keeps transient wiring off the map";
    }
    // Either way the data arrived.
    std::vector<std::byte> b(1);
    ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a + 3 * sim::kPageSize, b));
    EXPECT_EQ(std::byte{0x5c}, b[0]);
  }
}

TEST(WiringDivergenceTest, PhysioFragmentsOnlyBsd) {
  for (VmKind kind : {VmKind::kBsd, VmKind::kUvm}) {
    World w(kind);
    kern::Proc* p = w.kernel->Spawn();
    sim::Vaddr a = 0;
    ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 8 * sim::kPageSize, kern::MapAttrs{}));
    std::size_t before = p->as->EntryCount();
    ASSERT_EQ(sim::kOk, w.kernel->Physio(p, a + 2 * sim::kPageSize, 2 * sim::kPageSize,
                                         /*is_write=*/false));
    EXPECT_EQ(kind == VmKind::kBsd ? before + 2 : before, p->as->EntryCount());
  }
}

TEST(WiringDivergenceTest, TransientWiringIsFullyReleased) {
  for (VmKind kind : {VmKind::kBsd, VmKind::kUvm}) {
    World w(kind);
    kern::Proc* p = w.kernel->Spawn();
    sim::Vaddr a = 0;
    ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 4 * sim::kPageSize, kern::MapAttrs{}));
    ASSERT_EQ(sim::kOk, w.kernel->Sysctl(p, a, 4 * sim::kPageSize));
    // No page remains wired afterwards.
    for (int i = 0; i < 4; ++i) {
      auto pte = p->as->pmap().Extract(a + i * sim::kPageSize);
      if (pte.has_value()) {
        EXPECT_EQ(0, w.pm.PageAt(pte->pfn)->wire_count);
      }
    }
    EXPECT_TRUE(p->kernel_stack_wirings.empty());
  }
}

TEST(WiringDivergenceTest, ProcResourcesUseKernelMapOnlyInBsd) {
  for (VmKind kind : {VmKind::kBsd, VmKind::kUvm}) {
    World w(kind);
    std::size_t before = w.vm->KernelMapEntries();
    kern::Proc* p = w.kernel->Spawn();
    if (kind == VmKind::kBsd) {
      EXPECT_EQ(before + 2, w.vm->KernelMapEntries()) << "u-area + kstack entries";
    } else {
      EXPECT_EQ(before, w.vm->KernelMapEntries()) << "wired state lives in the proc";
    }
    w.kernel->Exit(p);
    EXPECT_EQ(before, w.vm->KernelMapEntries());
  }
}

TEST(WiringDivergenceTest, PtPagesConsumeKernelEntriesOnlyInBsd) {
  for (VmKind kind : {VmKind::kBsd, VmKind::kUvm}) {
    World w(kind);
    kern::Proc* p = w.kernel->Spawn();
    std::size_t before = w.vm->KernelMapEntries();
    sim::Vaddr a = 0x1000'0000;
    kern::MapAttrs fixed;
    fixed.fixed = true;
    ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, sim::kPageSize, fixed));
    sim::Vaddr b = 0x4000'0000;
    ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &b, sim::kPageSize, fixed));
    w.kernel->TouchWrite(p, a, 1, std::byte{1});  // PT page for region 1
    w.kernel->TouchWrite(p, b, 1, std::byte{1});  // PT page for region 2
    std::size_t delta = w.vm->KernelMapEntries() - before;
    EXPECT_EQ(kind == VmKind::kBsd ? 2u : 0u, delta);
    w.kernel->Exit(p);
    EXPECT_EQ(before - (kind == VmKind::kBsd ? 2 : 0), w.vm->KernelMapEntries());
  }
}

TEST(WiringDivergenceTest, RepeatedSysctlAtSameSpotFragmentsOnce) {
  World w(VmKind::kBsd);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 8 * sim::kPageSize, kern::MapAttrs{}));
  ASSERT_EQ(sim::kOk, w.kernel->Sysctl(p, a + 3 * sim::kPageSize, sim::kPageSize));
  std::size_t after_first = p->as->EntryCount();
  ASSERT_EQ(sim::kOk, w.kernel->Sysctl(p, a + 3 * sim::kPageSize, sim::kPageSize));
  EXPECT_EQ(after_first, p->as->EntryCount());
}

INSTANTIATE_TEST_SUITE_P(BothVms, WiringTest, ::testing::Values(VmKind::kBsd, VmKind::kUvm),
                         refmodel::VmName);

}  // namespace
