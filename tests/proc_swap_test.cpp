// Process swap-out tests (§3.2 second bullet): the u-area's wired state
// lives in the proc structure under UVM and in the kernel map under BSD VM;
// either way swap-out unwires it and swap-in restores it.
#include <gtest/gtest.h>

#include "src/harness/world.h"
#include "tests/ref_model.h"

namespace {

using harness::VmKind;
using harness::World;

class ProcSwapTest : public ::testing::TestWithParam<VmKind> {};

TEST_P(ProcSwapTest, SwapOutUnwiresUareaSwapInRestores) {
  World w(GetParam());
  kern::Proc* p = w.kernel->Spawn();
  ASSERT_FALSE(p->kres.wired_pages.empty());
  for (phys::Page* pg : p->kres.wired_pages) {
    EXPECT_EQ(1, pg->wire_count);
  }
  w.kernel->SwapOutProc(p);
  for (phys::Page* pg : p->kres.wired_pages) {
    EXPECT_EQ(0, pg->wire_count);
  }
  w.kernel->SwapInProc(p);
  for (phys::Page* pg : p->kres.wired_pages) {
    EXPECT_EQ(1, pg->wire_count);
  }
  w.CheckInvariants();
}

TEST_P(ProcSwapTest, SwapStateStorageMatchesSystemDesign) {
  World w(GetParam());
  kern::Proc* p = w.kernel->Spawn();
  std::uint64_t locks_before = w.machine.stats().map_lock_acquisitions;
  w.kernel->SwapOutProc(p);
  std::uint64_t locks_taken = w.machine.stats().map_lock_acquisitions - locks_before;
  if (GetParam() == VmKind::kBsd) {
    // BSD VM has to relock the kernel map to flip the wired state of the
    // u-area and kstack entries.
    EXPECT_GE(locks_taken, 2u);
  } else {
    // UVM touches no map at all: the state is in the proc structure.
    EXPECT_EQ(0u, locks_taken);
  }
  w.kernel->SwapInProc(p);
}

TEST_P(ProcSwapTest, ExitWhileSwappedOutCleansUp) {
  World w(GetParam());
  std::size_t free_before = w.pm.free_pages();
  kern::Proc* p = w.kernel->Spawn();
  w.kernel->SwapOutProc(p);
  w.kernel->Exit(p);
  EXPECT_EQ(free_before, w.pm.free_pages());
  w.CheckInvariants();
}

TEST_P(ProcSwapTest, SwappedProcessStillRunsAfterSwapIn) {
  World w(GetParam());
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 4 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 4 * sim::kPageSize, std::byte{0x12});
  w.kernel->SwapOutProc(p);
  w.kernel->SwapInProc(p);
  std::vector<std::byte> b(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a, b));
  EXPECT_EQ(std::byte{0x12}, b[0]);
}

INSTANTIATE_TEST_SUITE_P(BothVms, ProcSwapTest, ::testing::Values(VmKind::kBsd, VmKind::kUvm),
                         refmodel::VmName);

}  // namespace
