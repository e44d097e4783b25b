// Edge cases across the fault, extract, and inheritance machinery that the
// mainline tests don't reach: faults at entry boundaries, extracts of
// wired and swapped memory, inheritance changes after fork, repeated
// protect churn over COW state, and exec-like full teardown mid-pressure.
#include <gtest/gtest.h>

#include "src/harness/world.h"
#include "tests/ref_model.h"

namespace {

using harness::VmKind;
using harness::World;
using harness::WorldConfig;

class EdgeTest : public ::testing::TestWithParam<VmKind> {
 protected:
  World w{GetParam()};

  std::byte ReadByte(kern::Proc* p, sim::Vaddr va) {
    std::vector<std::byte> b(1);
    EXPECT_EQ(sim::kOk, w.kernel->ReadMem(p, va, b));
    return b[0];
  }
};

TEST_P(EdgeTest, FaultAtFirstAndLastPageOfEntry) {
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 8 * sim::kPageSize, kern::MapAttrs{}));
  EXPECT_EQ(sim::kOk, w.vm->Fault(*p->as, a, sim::Access::kWrite));
  EXPECT_EQ(sim::kOk, w.vm->Fault(*p->as, a + 7 * sim::kPageSize + 4095, sim::Access::kWrite));
  EXPECT_EQ(sim::kErrFault, w.vm->Fault(*p->as, a + 8 * sim::kPageSize, sim::Access::kRead));
}

TEST_P(EdgeTest, RepeatedFaultOnSamePageIsIdempotent) {
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, sim::kPageSize, kern::MapAttrs{}));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(sim::kOk, w.vm->Fault(*p->as, a, sim::Access::kWrite));
  }
  EXPECT_EQ(1u, p->as->pmap().resident_count());
  w.CheckInvariants();
}

TEST_P(EdgeTest, ProtectChurnOverCowKeepsData) {
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 4 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 4 * sim::kPageSize, std::byte{0x5e});
  kern::Proc* c = w.kernel->Fork(p);
  for (int round = 0; round < 4; ++round) {
    ASSERT_EQ(sim::kOk, w.kernel->Mprotect(p, a, 4 * sim::kPageSize, sim::Prot::kRead));
    ASSERT_EQ(sim::kOk, w.kernel->Mprotect(p, a, 4 * sim::kPageSize, sim::Prot::kReadWrite));
  }
  w.kernel->TouchWrite(p, a, 1, std::byte{0x60});
  EXPECT_EQ(std::byte{0x5e}, ReadByte(c, a));
  EXPECT_EQ(std::byte{0x60}, ReadByte(p, a));
  w.kernel->Exit(c);
  w.CheckInvariants();
}

TEST_P(EdgeTest, InheritanceChangeAfterForkOnlyAffectsNextFork) {
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 2 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 1, std::byte{1});
  kern::Proc* c1 = w.kernel->Fork(p);
  ASSERT_EQ(sim::kOk, w.kernel->Minherit(p, a, 2 * sim::kPageSize, sim::Inherit::kNone));
  kern::Proc* c2 = w.kernel->Fork(p);
  // c1 keeps its copy; c2 has a hole.
  EXPECT_EQ(std::byte{1}, ReadByte(c1, a));
  std::vector<std::byte> b(1);
  EXPECT_EQ(sim::kErrFault, w.kernel->ReadMem(c2, a, b));
  w.kernel->Exit(c1);
  w.kernel->Exit(c2);
  w.CheckInvariants();
}

TEST_P(EdgeTest, MsyncOfCleanRangeDoesNothing) {
  w.fs.CreateFilePattern("/f", 4 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  kern::MapAttrs shared;
  shared.shared = true;
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &a, 4 * sim::kPageSize, "/f", 0, shared));
  w.kernel->TouchRead(p, a, 4 * sim::kPageSize);
  std::uint64_t writes = w.machine.stats().disk_pages_written;
  ASSERT_EQ(sim::kOk, w.kernel->Msync(p, a, 4 * sim::kPageSize));
  EXPECT_EQ(writes, w.machine.stats().disk_pages_written);
}

TEST_P(EdgeTest, ExitUnderMemoryPressureReleasesEverything) {
  WorldConfig cfg;
  cfg.ram_pages = 96;
  World w2(GetParam(), cfg);
  std::size_t swap_used_before = w2.swap.used_slots();
  for (int round = 0; round < 3; ++round) {
    kern::Proc* p = w2.kernel->Spawn();
    sim::Vaddr a = 0;
    ASSERT_EQ(sim::kOk, w2.kernel->MmapAnon(p, &a, 128 * sim::kPageSize, kern::MapAttrs{}));
    w2.kernel->TouchWrite(p, a, 128 * sim::kPageSize, std::byte{1});
    w2.kernel->Exit(p);
    EXPECT_EQ(swap_used_before, w2.swap.used_slots()) << "round " << round;
  }
  w2.CheckInvariants();
}

TEST_P(EdgeTest, ZeroFillReadThenWriteUpgrades) {
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, sim::kPageSize, kern::MapAttrs{}));
  EXPECT_EQ(std::byte{0}, ReadByte(p, a));  // read fault first
  ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(p, a, 1, std::byte{0x2a}));
  EXPECT_EQ(std::byte{0x2a}, ReadByte(p, a));
  w.CheckInvariants();
}

TEST_P(EdgeTest, ForkOfProcessWithEverything) {
  // One fork across every mapping type at once.
  w.fs.CreateFilePattern("/f", 4 * sim::kPageSize);
  kern::DeviceMem* dev = w.kernel->RegisterDevice("/dev/fb", 2);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr anon = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &anon, 4 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, anon, 4 * sim::kPageSize, std::byte{1});
  kern::MapAttrs shared;
  shared.shared = true;
  sim::Vaddr file_sh = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &file_sh, 4 * sim::kPageSize, "/f", 0, shared));
  sim::Vaddr file_pr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &file_pr, 4 * sim::kPageSize, "/f", 0, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, file_pr, 1, std::byte{2});
  sim::Vaddr devva = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapDevice(p, &devva, dev, shared));
  ASSERT_EQ(sim::kOk, w.kernel->Mlock(p, anon, sim::kPageSize));

  kern::Proc* c = w.kernel->Fork(p);
  EXPECT_EQ(std::byte{1}, ReadByte(c, anon));
  EXPECT_EQ(std::byte{2}, ReadByte(c, file_pr));
  EXPECT_EQ(vfs::Filesystem::PatternByte("/f", 0), ReadByte(c, file_sh));
  EXPECT_EQ(vfs::Filesystem::PatternByte("/dev/fb", 0), ReadByte(c, devva));
  // Child writes diverge on private memory, share on shared memory.
  w.kernel->TouchWrite(c, anon, 1, std::byte{9});
  EXPECT_EQ(std::byte{1}, ReadByte(p, anon));
  w.kernel->TouchWrite(c, file_sh, 1, std::byte{8});
  EXPECT_EQ(std::byte{8}, ReadByte(p, file_sh));
  w.kernel->Exit(c);
  w.kernel->Exit(p);
  w.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(BothVms, EdgeTest, ::testing::Values(VmKind::kBsd, VmKind::kUvm),
                         refmodel::VmName);

}  // namespace
