// UVM specifics: embedded memory objects and single-layer caching (§4),
// the pager-allocates clustered-I/O pager API (§6), needs-copy semantics,
// and fault-time neighbour mapping (§5.4).
#include <gtest/gtest.h>

#include "src/harness/world.h"
#include "src/sim/assert.h"

namespace {

using harness::VmKind;
using harness::World;
using harness::WorldConfig;

uvm::Uvm* U(World& w) { return static_cast<uvm::Uvm*>(w.vm.get()); }

TEST(UvmObjectTest, MappingAFileAllocatesNoVmStructures) {
  World w(VmKind::kUvm);
  w.fs.CreateFilePattern("/f", 4 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr addr = 0;
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &addr, 4 * sim::kPageSize, "/f", 0, ro));
  // No BSD-style vm_object/vm_pager/vn_pager allocations, no amaps, no
  // anons — the uvm_object is embedded in the vnode (§4, Figure 4).
  EXPECT_EQ(0u, w.machine.stats().objects_allocated);
  EXPECT_EQ(0u, w.machine.stats().amaps_allocated);
  EXPECT_EQ(0u, w.machine.stats().anons_allocated);
}

TEST(UvmObjectTest, FilePagesPersistOnVnodeAfterUnmap) {
  World w(VmKind::kUvm);
  w.fs.CreateFilePattern("/f", 8 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &addr, 8 * sim::kPageSize, "/f", 0, ro));
  w.kernel->TouchRead(p, addr, 8 * sim::kPageSize);
  ASSERT_EQ(sim::kOk, w.kernel->Munmap(p, addr, 8 * sim::kPageSize));
  std::uint64_t ops = w.machine.stats().disk_ops;
  // Remap and re-read: everything still resident on the vnode's object.
  sim::Vaddr addr2 = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &addr2, 8 * sim::kPageSize, "/f", 0, ro));
  w.kernel->TouchRead(p, addr2, 8 * sim::kPageSize);
  EXPECT_EQ(ops, w.machine.stats().disk_ops);
}

TEST(UvmObjectTest, UnmappedVnodeGoesToVnodeLruNotAnObjectCache) {
  World w(VmKind::kUvm);
  w.fs.CreateFilePattern("/f", sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &addr, sim::kPageSize, "/f", 0, ro));
  EXPECT_EQ(1, w.fs.cache().Peek("/f")->usecount());  // UVM's single reference
  ASSERT_EQ(sim::kOk, w.kernel->Munmap(p, addr, sim::kPageSize));
  EXPECT_EQ(0, w.fs.cache().Peek("/f")->usecount());
  EXPECT_EQ(1u, w.fs.cache().cached_vnodes());
}

TEST(UvmObjectTest, VnodeRecycleFlushesDirtyPages) {
  WorldConfig cfg;
  cfg.max_vnodes = 2;
  World w(VmKind::kUvm, cfg);
  w.fs.CreateFilePattern("/f", 2 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  kern::MapAttrs shared;
  shared.shared = true;
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &addr, 2 * sim::kPageSize, "/f", 0, shared));
  w.kernel->TouchWrite(p, addr, 1, std::byte{0x5a});
  ASSERT_EQ(sim::kOk, w.kernel->Munmap(p, addr, 2 * sim::kPageSize));
  // Force the vnode to be recycled (fill the 2-slot vnode table).
  for (int i = 0; i < 2; ++i) {
    std::string name = "/x" + std::to_string(i);
    w.fs.CreateFilePattern(name, sim::kPageSize);
    w.fs.Close(w.fs.Open(name));
  }
  EXPECT_EQ(nullptr, w.fs.cache().Peek("/f"));  // recycled
  // The dirty write survived via uvm_vnp_terminate's flush.
  sim::Vaddr addr2 = 0;
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &addr2, 2 * sim::kPageSize, "/f", 0, ro));
  std::vector<std::byte> b(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, addr2, b));
  EXPECT_EQ(std::byte{0x5a}, b[0]);
}

TEST(UvmPagerTest, SequentialReadsAreClustered) {
  World w(VmKind::kUvm);
  w.fs.CreateFilePattern("/f", 16 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &addr, 16 * sim::kPageSize, "/f", 0, ro));
  w.kernel->TouchRead(p, addr, 16 * sim::kPageSize);
  // 16 pages in 8-page clusters: exactly 2 I/O operations.
  EXPECT_EQ(2u, w.machine.stats().disk_ops);
  EXPECT_EQ(16u, w.machine.stats().disk_pages_read);
}

TEST(UvmPagerTest, BsdReadsOnePagePerOperation) {
  World w(VmKind::kBsd);
  w.fs.CreateFilePattern("/f", 16 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &addr, 16 * sim::kPageSize, "/f", 0, ro));
  w.kernel->TouchRead(p, addr, 16 * sim::kPageSize);
  EXPECT_EQ(16u, w.machine.stats().disk_ops);
}

TEST(UvmPagerTest, ClusteringDisabledReadsSinglePages) {
  WorldConfig cfg;
  cfg.uvm.cluster_vnode_io = false;
  cfg.uvm.enable_lookahead = false;
  World w(VmKind::kUvm, cfg);
  w.fs.CreateFilePattern("/f", 8 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &addr, 8 * sim::kPageSize, "/f", 0, ro));
  w.kernel->TouchRead(p, addr, 8 * sim::kPageSize);
  EXPECT_EQ(8u, w.machine.stats().disk_ops);
}

TEST(UvmFaultTest, NeighborMappingReducesFaults) {
  World w(VmKind::kUvm);
  w.fs.CreateFilePattern("/f", 8 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &addr, 8 * sim::kPageSize, "/f", 0, ro));
  std::uint64_t before = w.machine.stats().faults;
  w.kernel->TouchRead(p, addr, 8 * sim::kPageSize);
  // First fault reads the 8-page cluster and maps 4 pages ahead; the next
  // fault lands at page 5 — only 2 faults for 8 sequential pages.
  EXPECT_EQ(before + 2, w.machine.stats().faults);
  EXPECT_GT(w.machine.stats().fault_neighbor_maps, 0u);
}

TEST(UvmFaultTest, MadviseRandomDisablesLookahead) {
  World w(VmKind::kUvm);
  w.fs.CreateFilePattern("/f", 8 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  ro.advice = sim::Advice::kRandom;
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &addr, 8 * sim::kPageSize, "/f", 0, ro));
  std::uint64_t before = w.machine.stats().faults;
  w.kernel->TouchRead(p, addr, 8 * sim::kPageSize);
  EXPECT_EQ(before + 8, w.machine.stats().faults);  // one fault per page
}

TEST(UvmFaultTest, MadviseSequentialLooksFurtherAhead) {
  World w(VmKind::kUvm);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &addr, 16 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, addr, 16 * sim::kPageSize, std::byte{1});  // all resident
  ASSERT_EQ(sim::kOk, w.kernel->Madvise(p, addr, 16 * sim::kPageSize, sim::Advice::kSequential));
  p->as->pmap().RemoveRange(addr, addr + 16 * sim::kPageSize);
  std::uint64_t before = w.machine.stats().faults;
  w.kernel->TouchRead(p, addr, 16 * sim::kPageSize);
  // 7 pages of pure-forward lookahead: faults at 0 and 8 only.
  EXPECT_EQ(before + 2, w.machine.stats().faults);
}

TEST(UvmFaultTest, ReadOnPrivateMappingAllocatesNothing) {
  // Table 3's read/private row: UVM defers all anonymous-layer allocation
  // past read faults, unlike BSD VM's eager shadow.
  World w(VmKind::kUvm);
  w.fs.CreateFilePattern("/f", 4 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &addr, 4 * sim::kPageSize, "/f", 0, kern::MapAttrs{}));
  w.kernel->TouchRead(p, addr, 4 * sim::kPageSize);
  EXPECT_EQ(0u, w.machine.stats().amaps_allocated);
  EXPECT_EQ(0u, w.machine.stats().anons_allocated);
  // The first write promotes exactly one page into a fresh anon.
  w.kernel->TouchWrite(p, addr, 1, std::byte{9});
  EXPECT_EQ(1u, w.machine.stats().amaps_allocated);
  EXPECT_EQ(1u, w.machine.stats().anons_allocated);
}

TEST(UvmFaultTest, PromotedPageShadowsObjectPage) {
  World w(VmKind::kUvm);
  w.fs.CreateFilePattern("/f", 2 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &addr, 2 * sim::kPageSize, "/f", 0, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, addr, 1, std::byte{0x21});
  std::vector<std::byte> b(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, addr, b));
  EXPECT_EQ(std::byte{0x21}, b[0]);  // amap layer wins the two-level lookup
  // Page 1 still reads through to the file.
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, addr + sim::kPageSize, b));
  EXPECT_EQ(vfs::Filesystem::PatternByte("/f", sim::kPageSize), b[0]);
}

TEST(UvmFaultTest, SharedAnonMappingSharedAcrossFork) {
  World w(VmKind::kUvm);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr addr = 0;
  kern::MapAttrs shared;
  shared.shared = true;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &addr, 2 * sim::kPageSize, shared));
  EXPECT_EQ(1u, U(w)->LiveAmaps());  // shared anon amaps are eager
  kern::Proc* c = w.kernel->Fork(p);
  w.kernel->TouchWrite(c, addr, 1, std::byte{0x44});
  std::vector<std::byte> b(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, addr, b));
  EXPECT_EQ(std::byte{0x44}, b[0]);  // System-V-shm-style sharing
  w.kernel->Exit(c);
  w.CheckInvariants();
}

TEST(UvmFaultTest, TwoPhaseUnmapHoldsLockShorterThanBsd) {
  auto lock_hold_for = [](VmKind kind) {
    World w(kind);
    kern::Proc* p = w.kernel->Spawn();
    sim::Vaddr addr = 0;
    int err = w.kernel->MmapAnon(p, &addr, 256 * sim::kPageSize, kern::MapAttrs{});
    SIM_ASSERT(err == sim::kOk);
    w.kernel->TouchWrite(p, addr, 256 * sim::kPageSize, std::byte{1});
    std::uint64_t before = w.machine.stats().map_lock_hold_ns;
    err = w.kernel->Munmap(p, addr, 256 * sim::kPageSize);
    SIM_ASSERT(err == sim::kOk);
    return w.machine.stats().map_lock_hold_ns - before;
  };
  // BSD VM drops object references (freeing 256 pages) with the map still
  // locked; UVM's phase 2 runs unlocked (§3.1).
  EXPECT_GT(lock_hold_for(VmKind::kBsd), 2 * lock_hold_for(VmKind::kUvm));
}

}  // namespace
