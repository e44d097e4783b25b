// End-to-end smoke tests: the same basic scenarios must work over both VM
// systems — map/touch/unmap, file contents, COW fork isolation, paging.
#include <gtest/gtest.h>

#include "src/harness/world.h"

namespace {

using harness::VmKind;
using harness::World;

class SmokeTest : public ::testing::TestWithParam<VmKind> {};

TEST_P(SmokeTest, AnonWriteReadBack) {
  World w(GetParam());
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &addr, 16 * sim::kPageSize, kern::MapAttrs{}));
  std::vector<std::byte> data(100, std::byte{0xab});
  ASSERT_EQ(sim::kOk, w.kernel->WriteMem(p, addr + 5000, data));
  std::vector<std::byte> back(100);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, addr + 5000, back));
  EXPECT_EQ(data, back);
  // Untouched pages read as zero.
  std::vector<std::byte> zero(10);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, addr + 9 * sim::kPageSize, zero));
  for (std::byte b : zero) {
    EXPECT_EQ(std::byte{0}, b);
  }
  w.CheckInvariants();
}

TEST_P(SmokeTest, FileMappingReadsFileContents) {
  World w(GetParam());
  w.fs.CreateFilePattern("/f", 8 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr addr = 0;
  kern::MapAttrs attrs;
  attrs.prot = sim::Prot::kRead;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &addr, 8 * sim::kPageSize, "/f", 0, attrs));
  std::vector<std::byte> got(64);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, addr + 3 * sim::kPageSize + 17, got));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(vfs::Filesystem::PatternByte("/f", 3 * sim::kPageSize + 17 + i), got[i]);
  }
  w.CheckInvariants();
}

TEST_P(SmokeTest, PrivateFileWriteDoesNotReachFile) {
  World w(GetParam());
  w.fs.CreateFilePattern("/f", 4 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &addr, 4 * sim::kPageSize, "/f", 0, kern::MapAttrs{}));
  std::vector<std::byte> data(10, std::byte{0x77});
  ASSERT_EQ(sim::kOk, w.kernel->WriteMem(p, addr + 100, data));
  ASSERT_EQ(sim::kOk, w.kernel->Munmap(p, addr, 4 * sim::kPageSize));

  // A second, fresh mapping must see the original file data.
  sim::Vaddr addr2 = 0;
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &addr2, 4 * sim::kPageSize, "/f", 0, ro));
  std::vector<std::byte> back(10);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, addr2 + 100, back));
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(vfs::Filesystem::PatternByte("/f", 100 + i), back[i]);
  }
  w.CheckInvariants();
}

TEST_P(SmokeTest, SharedFileWriteReachesFileViaMsync) {
  World w(GetParam());
  w.fs.CreateFilePattern("/f", 4 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr addr = 0;
  kern::MapAttrs attrs;
  attrs.shared = true;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &addr, 4 * sim::kPageSize, "/f", 0, attrs));
  std::vector<std::byte> data(10, std::byte{0x55});
  ASSERT_EQ(sim::kOk, w.kernel->WriteMem(p, addr + 200, data));
  ASSERT_EQ(sim::kOk, w.kernel->Msync(p, addr, 4 * sim::kPageSize));

  // A second process mapping the file sees the change.
  kern::Proc* q = w.kernel->Spawn();
  sim::Vaddr addr2 = 0;
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(q, &addr2, 4 * sim::kPageSize, "/f", 0, ro));
  std::vector<std::byte> back(10);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(q, addr2 + 200, back));
  EXPECT_EQ(data, back);
  w.CheckInvariants();
}

TEST_P(SmokeTest, ForkCopyOnWriteIsolation) {
  World w(GetParam());
  kern::Proc* parent = w.kernel->Spawn();
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(parent, &addr, 8 * sim::kPageSize, kern::MapAttrs{}));
  ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(parent, addr, 8 * sim::kPageSize, std::byte{0xaa}));

  kern::Proc* child = w.kernel->Fork(parent);
  // Child sees parent data.
  std::vector<std::byte> b(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(child, addr + 2 * sim::kPageSize, b));
  EXPECT_EQ(std::byte{0xaa}, b[0]);

  // Child writes; parent must not see it.
  ASSERT_EQ(sim::kOk,
            w.kernel->TouchWrite(child, addr + 2 * sim::kPageSize, sim::kPageSize, std::byte{0xcc}));
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(parent, addr + 2 * sim::kPageSize, b));
  EXPECT_EQ(std::byte{0xaa}, b[0]);

  // Parent writes another page; child must not see it.
  ASSERT_EQ(sim::kOk,
            w.kernel->TouchWrite(parent, addr + 3 * sim::kPageSize, sim::kPageSize, std::byte{0xdd}));
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(child, addr + 3 * sim::kPageSize, b));
  EXPECT_EQ(std::byte{0xaa}, b[0]);

  w.kernel->Exit(child);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(parent, addr + 2 * sim::kPageSize, b));
  EXPECT_EQ(std::byte{0xaa}, b[0]);
  w.CheckInvariants();
}

TEST_P(SmokeTest, PagingUnderPressureRoundTrips) {
  harness::WorldConfig cfg;
  cfg.ram_pages = 256;  // 1 MB of RAM
  World w(GetParam(), cfg);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr addr = 0;
  const std::size_t npages = 512;  // 2 MB of anon memory
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &addr, npages * sim::kPageSize, kern::MapAttrs{}));
  for (std::size_t i = 0; i < npages; ++i) {
    ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(p, addr + i * sim::kPageSize, 1,
                                             std::byte{static_cast<unsigned char>(i * 7 + 1)}));
  }
  EXPECT_GT(w.machine.stats().swap_pages_out, 0u);
  // Everything must read back exactly (swap round trip).
  for (std::size_t i = 0; i < npages; ++i) {
    std::vector<std::byte> b(1);
    ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, addr + i * sim::kPageSize, b));
    ASSERT_EQ(std::byte{static_cast<unsigned char>(i * 7 + 1)}, b[0]) << "page " << i;
  }
  w.CheckInvariants();
}

TEST_P(SmokeTest, ProtectionEnforced) {
  World w(GetParam());
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr addr = 0;
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &addr, 4 * sim::kPageSize, ro));
  std::vector<std::byte> data(1, std::byte{1});
  EXPECT_EQ(sim::kErrProt, w.kernel->WriteMem(p, addr, data));
  // Unmapped access faults.
  std::vector<std::byte> b(1);
  EXPECT_EQ(sim::kErrFault, w.kernel->ReadMem(p, 0x7000'0000, b));
  w.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(BothVms, SmokeTest, ::testing::Values(VmKind::kBsd, VmKind::kUvm),
                         [](const ::testing::TestParamInfo<VmKind>& param_info) {
                           return harness::VmKindName(param_info.param);
                         });

}  // namespace
