// Map-operation tests run against both VM systems: placement, fixed
// mappings, clipping on protect/inherit/advise, partial unmaps, max
// protection, and address-space exhaustion. Both VMs run the range ops
// through one shared walk (src/vm/range_ops.h); these pin what it does.
#include <gtest/gtest.h>

#include "src/harness/world.h"

namespace {

using harness::VmKind;
using harness::World;

class MapTest : public ::testing::TestWithParam<VmKind> {
 protected:
  World w{GetParam()};
  kern::Proc* p = w.kernel->Spawn();
};

TEST_P(MapTest, HintIsRespectedWhenFree) {
  sim::Vaddr addr = 0x2000'0000;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &addr, sim::kPageSize, kern::MapAttrs{}));
  EXPECT_EQ(0x2000'0000u, addr);
}

TEST_P(MapTest, PlacementSkipsExistingMappings) {
  sim::Vaddr a = 0x1000'0000;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 4 * sim::kPageSize, kern::MapAttrs{}));
  sim::Vaddr b = 0x1000'0000;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &b, 4 * sim::kPageSize, kern::MapAttrs{}));
  EXPECT_EQ(a + 4 * sim::kPageSize, b);
}

TEST_P(MapTest, FixedCollisionFails) {
  sim::Vaddr a = 0x1000'0000;
  kern::MapAttrs fixed;
  fixed.fixed = true;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 4 * sim::kPageSize, fixed));
  sim::Vaddr b = 0x1000'2000;  // overlaps
  EXPECT_EQ(sim::kErrExist, w.kernel->MmapAnon(p, &b, 4 * sim::kPageSize, fixed));
  // A device mapping takes the same fixed-address check.
  kern::DeviceMem* dev = w.kernel->RegisterDevice("fb", 2);
  sim::Vaddr d = 0x1000'3000;  // overlaps the last page
  EXPECT_EQ(sim::kErrExist, w.kernel->MmapDevice(p, &d, dev, fixed));
  d = 0x1000'4000;  // just past it
  EXPECT_EQ(sim::kOk, w.kernel->MmapDevice(p, &d, dev, fixed));
  EXPECT_EQ(0x1000'4000u, d);
}

TEST_P(MapTest, ZeroLengthIsInvalid) {
  sim::Vaddr a = 0;
  EXPECT_EQ(sim::kErrInval, w.kernel->MmapAnon(p, &a, 0, kern::MapAttrs{}));
}

TEST_P(MapTest, LengthIsPageRounded) {
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 100, kern::MapAttrs{}));
  // The whole page is accessible...
  ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(p, a + sim::kPageSize - 1, 1, std::byte{1}));
  // ...but the next page is not.
  std::vector<std::byte> b(1);
  EXPECT_EQ(sim::kErrFault, w.kernel->ReadMem(p, a + sim::kPageSize, b));
}

TEST_P(MapTest, ProtectSubrangeClipsEntries) {
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 8 * sim::kPageSize, kern::MapAttrs{}));
  std::size_t entries = p->as->EntryCount();
  // Interior subrange: two clips.
  ASSERT_EQ(sim::kOk,
            w.kernel->Mprotect(p, a + 2 * sim::kPageSize, 2 * sim::kPageSize, sim::Prot::kRead));
  EXPECT_EQ(entries + 2, p->as->EntryCount());
  EXPECT_GE(w.machine.stats().map_entry_fragmentations, 2u);
}

TEST_P(MapTest, ProtectIsEnforcedAfterClip) {
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 4 * sim::kPageSize, kern::MapAttrs{}));
  ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(p, a, 4 * sim::kPageSize, std::byte{1}));
  ASSERT_EQ(sim::kOk, w.kernel->Mprotect(p, a + sim::kPageSize, sim::kPageSize, sim::Prot::kRead));
  EXPECT_EQ(sim::kOk, w.kernel->TouchWrite(p, a, 1, std::byte{2}));
  EXPECT_EQ(sim::kErrProt, w.kernel->TouchWrite(p, a + sim::kPageSize, 1, std::byte{2}));
  EXPECT_EQ(sim::kOk, w.kernel->TouchWrite(p, a + 2 * sim::kPageSize, 1, std::byte{2}));
  // Data survives the protection change.
  std::vector<std::byte> b(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a + sim::kPageSize, b));
  EXPECT_EQ(std::byte{1}, b[0]);
}

TEST_P(MapTest, ProtectAboveMaxProtFails) {
  sim::Vaddr a = 0;
  kern::MapAttrs attrs;
  attrs.prot = sim::Prot::kRead;
  attrs.max_prot = sim::Prot::kRead;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, sim::kPageSize, attrs));
  EXPECT_EQ(sim::kErrProt, w.kernel->Mprotect(p, a, sim::kPageSize, sim::Prot::kReadWrite));
}

TEST_P(MapTest, ProtectStopsAtTheEntryItsMaxProtRefuses) {
  kern::MapAttrs fixed;
  fixed.fixed = true;
  sim::Vaddr a = 0x1000'0000;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 4 * sim::kPageSize, fixed));
  kern::MapAttrs ro = fixed;
  ro.prot = sim::Prot::kRead;
  ro.max_prot = sim::Prot::kRead;
  sim::Vaddr b = a + 4 * sim::kPageSize;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &b, 4 * sim::kPageSize, ro));
  ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(p, a, 4 * sim::kPageSize, std::byte{3}));
  std::size_t entries = p->as->EntryCount();
  // From the middle of the first entry to the middle of the second, which
  // cannot become executable.
  EXPECT_EQ(sim::kErrProt,
            w.kernel->Mprotect(p, a + 2 * sim::kPageSize, 4 * sim::kPageSize,
                               sim::Prot::kReadExec));
  // The first entry was clipped and keeps its change; the refused entry
  // was not clipped at all.
  EXPECT_EQ(entries + 1, p->as->EntryCount());
  EXPECT_EQ(sim::kOk, w.kernel->TouchWrite(p, a + sim::kPageSize, 1, std::byte{4}));
  EXPECT_EQ(sim::kErrProt, w.kernel->TouchWrite(p, a + 2 * sim::kPageSize, 1, std::byte{4}));
  std::vector<std::byte> byte(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a + 3 * sim::kPageSize, byte));
  EXPECT_EQ(std::byte{3}, byte[0]);
  w.CheckInvariants();
}

TEST_P(MapTest, SetAdviceClipsInteriorSubrange) {
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 8 * sim::kPageSize, kern::MapAttrs{}));
  ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(p, a, 8 * sim::kPageSize, std::byte{6}));
  std::size_t entries = p->as->EntryCount();
  std::uint64_t frags = w.machine.stats().map_entry_fragmentations;
  ASSERT_EQ(sim::kOk, w.kernel->Madvise(p, a + 2 * sim::kPageSize, 2 * sim::kPageSize,
                                        sim::Advice::kSequential));
  // Head, advised middle, tail: two clips.
  EXPECT_EQ(entries + 2, p->as->EntryCount());
  EXPECT_EQ(frags + 2, w.machine.stats().map_entry_fragmentations);
  std::vector<std::byte> byte(1);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a + i * sim::kPageSize, byte));
    EXPECT_EQ(std::byte{6}, byte[0]) << "page " << i;
  }
  w.CheckInvariants();
}

TEST_P(MapTest, UnmapMiddleLeavesEnds) {
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 6 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 6 * sim::kPageSize, std::byte{7});
  ASSERT_EQ(sim::kOk, w.kernel->Munmap(p, a + 2 * sim::kPageSize, 2 * sim::kPageSize));
  std::vector<std::byte> b(1);
  EXPECT_EQ(sim::kOk, w.kernel->ReadMem(p, a + sim::kPageSize, b));
  EXPECT_EQ(std::byte{7}, b[0]);
  EXPECT_EQ(sim::kErrFault, w.kernel->ReadMem(p, a + 2 * sim::kPageSize, b));
  EXPECT_EQ(sim::kErrFault, w.kernel->ReadMem(p, a + 3 * sim::kPageSize, b));
  EXPECT_EQ(sim::kOk, w.kernel->ReadMem(p, a + 4 * sim::kPageSize, b));
  EXPECT_EQ(std::byte{7}, b[0]);
  w.CheckInvariants();
}

TEST_P(MapTest, UnmapSpanningMultipleEntries) {
  kern::MapAttrs attrs;
  sim::Vaddr base = 0x1000'0000;
  for (int i = 0; i < 4; ++i) {
    sim::Vaddr a = base + i * 2 * sim::kPageSize;
    attrs.fixed = true;
    // Alternate file and anon mappings to vary entry types.
    if (i % 2 == 0) {
      ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 2 * sim::kPageSize, attrs));
    } else {
      w.fs.CreateFilePattern("/m" + std::to_string(i), 2 * sim::kPageSize);
      ASSERT_EQ(sim::kOk,
                w.kernel->Mmap(p, &a, 2 * sim::kPageSize, "/m" + std::to_string(i), 0, attrs));
    }
  }
  // Unmap from the middle of the first entry to the middle of the last.
  ASSERT_EQ(sim::kOk, w.kernel->Munmap(p, base + sim::kPageSize, 6 * sim::kPageSize));
  std::vector<std::byte> b(1);
  EXPECT_EQ(sim::kErrFault, w.kernel->ReadMem(p, base + sim::kPageSize, b));
  EXPECT_EQ(sim::kErrFault, w.kernel->ReadMem(p, base + 5 * sim::kPageSize, b));
  EXPECT_EQ(sim::kOk, w.kernel->ReadMem(p, base, b));
  EXPECT_EQ(sim::kOk, w.kernel->ReadMem(p, base + 7 * sim::kPageSize, b));
  w.CheckInvariants();
}

TEST_P(MapTest, UnmapOfUnmappedRangeIsNoop) {
  EXPECT_EQ(sim::kOk, w.kernel->Munmap(p, 0x5000'0000, 16 * sim::kPageSize));
}

TEST_P(MapTest, RemapReusesUnmappedSpace) {
  sim::Vaddr a = 0x1000'0000;
  kern::MapAttrs fixed;
  fixed.fixed = true;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 4 * sim::kPageSize, fixed));
  w.kernel->TouchWrite(p, a, 4 * sim::kPageSize, std::byte{0xee});
  ASSERT_EQ(sim::kOk, w.kernel->Munmap(p, a, 4 * sim::kPageSize));
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 4 * sim::kPageSize, fixed));
  // Fresh zero-fill memory, not the old contents.
  std::vector<std::byte> b(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a, b));
  EXPECT_EQ(std::byte{0}, b[0]);
}

TEST_P(MapTest, SetInheritClipsAndSticks) {
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 4 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 4 * sim::kPageSize, std::byte{5});
  ASSERT_EQ(sim::kOk,
            w.kernel->Minherit(p, a + sim::kPageSize, sim::kPageSize, sim::Inherit::kNone));
  kern::Proc* c = w.kernel->Fork(p);
  std::vector<std::byte> b(1);
  EXPECT_EQ(sim::kOk, w.kernel->ReadMem(c, a, b));
  EXPECT_EQ(sim::kErrFault, w.kernel->ReadMem(c, a + sim::kPageSize, b));
  EXPECT_EQ(sim::kOk, w.kernel->ReadMem(c, a + 2 * sim::kPageSize, b));
  w.kernel->Exit(c);
}

TEST_P(MapTest, AddressSpaceExhaustionFails) {
  sim::Vaddr a = 0;
  // The user address space is slightly under 3 GB.
  EXPECT_EQ(sim::kErrNoMem, w.kernel->MmapAnon(p, &a, 4ull << 30, kern::MapAttrs{}));
}

TEST_P(MapTest, MsyncPushesOnlyDirtyPages) {
  w.fs.CreateFilePattern("/f", 8 * sim::kPageSize);
  kern::MapAttrs shared;
  shared.shared = true;
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &a, 8 * sim::kPageSize, "/f", 0, shared));
  w.kernel->TouchRead(p, a, 8 * sim::kPageSize);
  std::uint64_t written = w.machine.stats().disk_pages_written;
  w.kernel->TouchWrite(p, a + 2 * sim::kPageSize, 1, std::byte{1});
  w.kernel->TouchWrite(p, a + 5 * sim::kPageSize, 1, std::byte{2});
  ASSERT_EQ(sim::kOk, w.kernel->Msync(p, a, 8 * sim::kPageSize));
  EXPECT_EQ(written + 2, w.machine.stats().disk_pages_written);
  // A second msync has nothing left to write.
  ASSERT_EQ(sim::kOk, w.kernel->Msync(p, a, 8 * sim::kPageSize));
  EXPECT_EQ(written + 2, w.machine.stats().disk_pages_written);
}

TEST_P(MapTest, EntryCountTracksMappings) {
  std::size_t base = p->as->EntryCount();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, sim::kPageSize, kern::MapAttrs{}));
  sim::Vaddr b = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &b, sim::kPageSize, kern::MapAttrs{}));
  EXPECT_EQ(base + 2, p->as->EntryCount());
  ASSERT_EQ(sim::kOk, w.kernel->Munmap(p, a, sim::kPageSize));
  EXPECT_EQ(base + 1, p->as->EntryCount());
}

INSTANTIATE_TEST_SUITE_P(BothVms, MapTest, ::testing::Values(VmKind::kBsd, VmKind::kUvm),
                         [](const ::testing::TestParamInfo<VmKind>& param_info) {
                           return harness::VmKindName(param_info.param);
                         });

}  // namespace
