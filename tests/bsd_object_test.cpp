// BSD VM specifics: shadow-object chains, the collapse operation, the
// 100-entry object cache, the pager hash table, and — the paper's central
// §5.1 pathology — swap memory leaks through uncollapsible chains.
#include <gtest/gtest.h>

#include "src/harness/world.h"

namespace {

using harness::VmKind;
using harness::World;
using harness::WorldConfig;

bsdvm::BsdVm* Bsd(World& w) { return static_cast<bsdvm::BsdVm*>(w.vm.get()); }

TEST(BsdObjectTest, ZeroFillMappingAllocatesObjectEagerly) {
  World w(VmKind::kBsd);
  kern::Proc* p = w.kernel->Spawn();
  std::size_t before = Bsd(w)->live_objects();
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &addr, 4 * sim::kPageSize, kern::MapAttrs{}));
  EXPECT_EQ(before + 1, Bsd(w)->live_objects());  // §5.1: allocated at map time
}

TEST(BsdObjectTest, PrivateReadFaultAllocatesShadow) {
  // Table 3's note: BSD VM allocates a shadow object for a private mapping
  // even on a read fault.
  World w(VmKind::kBsd);
  w.fs.CreateFilePattern("/f", 4 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr addr = 0;
  kern::MapAttrs attrs;
  attrs.prot = sim::Prot::kRead;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &addr, 4 * sim::kPageSize, "/f", 0, attrs));
  std::uint64_t shadows = w.machine.stats().shadows_created;
  ASSERT_EQ(sim::kOk, w.kernel->TouchRead(p, addr, 1));
  EXPECT_EQ(shadows + 1, w.machine.stats().shadows_created);
  EXPECT_EQ(2u, Bsd(w)->MaxChainDepth(*p->as));  // shadow -> vnode object
}

TEST(BsdObjectTest, ForkWriteForkWriteGrowsChains) {
  World w(VmKind::kBsd);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &addr, 8 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, addr, 8 * sim::kPageSize, std::byte{1});
  EXPECT_EQ(1u, Bsd(w)->MaxChainDepth(*p->as));
  // Each generation: fork a live child, then write in the parent — the
  // child's reference prevents collapsing the new shadow away.
  std::vector<kern::Proc*> children;
  for (int gen = 0; gen < 3; ++gen) {
    children.push_back(w.kernel->Fork(p));
    // A different page each generation, so no shadow fully obscures its
    // backing object and neither collapse nor bypass can shorten the chain.
    w.kernel->TouchWrite(p, addr + gen * sim::kPageSize, sim::kPageSize,
                         std::byte{static_cast<unsigned char>(gen + 1)});
  }
  EXPECT_GE(Bsd(w)->MaxChainDepth(*p->as), 3u);
  for (kern::Proc* c : children) {
    w.kernel->Exit(c);
  }
  w.CheckInvariants();
}

TEST(BsdObjectTest, CollapseShortensChainAfterChildrenExit) {
  World w(VmKind::kBsd);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &addr, 8 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, addr, 8 * sim::kPageSize, std::byte{1});
  std::vector<kern::Proc*> children;
  for (int gen = 0; gen < 3; ++gen) {
    children.push_back(w.kernel->Fork(p));
    w.kernel->TouchWrite(p, addr + gen * sim::kPageSize, sim::kPageSize, std::byte{2});
  }
  std::size_t deep = Bsd(w)->MaxChainDepth(*p->as);
  ASSERT_GE(deep, 3u);
  for (kern::Proc* c : children) {
    w.kernel->Exit(c);
  }
  // Collapse runs on the next copy-on-write fault (the repair is reactive).
  w.kernel->TouchWrite(p, addr, 8 * sim::kPageSize, std::byte{3});
  EXPECT_LT(Bsd(w)->MaxChainDepth(*p->as), deep);
  EXPECT_GT(w.machine.stats().collapses_done, 0u);
  w.CheckInvariants();
}

TEST(BsdObjectTest, SwapBackedShadowChainLeaksMemory) {
  // The §5.1 swap memory leak: once a chain object has paged to swap it
  // cannot be collapsed, so pages obscured by front objects stay allocated
  // even though no process can ever read them.
  WorldConfig cfg;
  cfg.ram_pages = 64;  // force paging
  World w(VmKind::kBsd, cfg);
  kern::Proc* p = w.kernel->Spawn();
  const std::size_t npages = 32;
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &addr, npages * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, addr, npages * sim::kPageSize, std::byte{1});
  kern::Proc* c = w.kernel->Fork(p);
  // Parent obscures pages 0..15 of the bottom object; child 8..23.
  w.kernel->TouchWrite(p, addr, 16 * sim::kPageSize, std::byte{2});
  w.kernel->TouchWrite(c, addr + 8 * sim::kPageSize, 16 * sim::kPageSize, std::byte{3});
  // Memory pressure pushes the bottom object to swap (it gets a pager).
  w.vm->PageDaemon(48);
  w.kernel->Exit(c);
  // Parent can access exactly npages distinct pages...
  for (std::size_t i = 0; i < npages; ++i) {
    std::vector<std::byte> b(1);
    ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, addr + i * sim::kPageSize, b));
  }
  // ...but BSD VM is holding more: the leak.
  EXPECT_GT(Bsd(w)->TotalAnonPages(), npages);
  w.CheckInvariants();
}

TEST(BsdObjectTest, UvmSameScenarioDoesNotLeak) {
  WorldConfig cfg;
  cfg.ram_pages = 64;
  World w(VmKind::kUvm, cfg);
  auto* vm = static_cast<uvm::Uvm*>(w.vm.get());
  kern::Proc* p = w.kernel->Spawn();
  const std::size_t npages = 32;
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &addr, npages * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, addr, npages * sim::kPageSize, std::byte{1});
  kern::Proc* c = w.kernel->Fork(p);
  w.kernel->TouchWrite(p, addr, 16 * sim::kPageSize, std::byte{2});
  w.kernel->TouchWrite(c, addr + 8 * sim::kPageSize, 16 * sim::kPageSize, std::byte{3});
  w.vm->PageDaemon(48);
  w.kernel->Exit(c);
  // Anon refcounting frees everything unreachable: exactly npages anons.
  EXPECT_EQ(npages, vm->LiveAnons());
  w.CheckInvariants();
}

TEST(BsdObjectTest, ObjectCacheKeepsUnreferencedVnodeObjects) {
  World w(VmKind::kBsd);
  w.fs.CreateFilePattern("/f", 4 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr addr = 0;
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &addr, 4 * sim::kPageSize, "/f", 0, ro));
  w.kernel->TouchRead(p, addr, 4 * sim::kPageSize);
  std::uint64_t ops = w.machine.stats().disk_ops;
  ASSERT_EQ(sim::kOk, w.kernel->Munmap(p, addr, 4 * sim::kPageSize));
  EXPECT_EQ(1u, Bsd(w)->object_cache_size());
  // Remap: cache hit, pages still resident, no disk I/O.
  sim::Vaddr addr2 = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &addr2, 4 * sim::kPageSize, "/f", 0, ro));
  w.kernel->TouchRead(p, addr2, 4 * sim::kPageSize);
  EXPECT_EQ(ops, w.machine.stats().disk_ops);
  EXPECT_GT(w.machine.stats().object_cache_hits, 0u);
  EXPECT_EQ(0u, Bsd(w)->object_cache_size());  // referenced again
}

TEST(BsdObjectTest, ObjectCacheEvictsBeyondLimit) {
  WorldConfig cfg;
  cfg.bsd.object_cache_limit = 5;  // scaled-down "one hundred file limit"
  World w(VmKind::kBsd, cfg);
  kern::Proc* p = w.kernel->Spawn();
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  for (int i = 0; i < 8; ++i) {
    std::string name = "/f" + std::to_string(i);
    w.fs.CreateFilePattern(name, sim::kPageSize);
    sim::Vaddr addr = 0;
    ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &addr, sim::kPageSize, name, 0, ro));
    w.kernel->TouchRead(p, addr, 1);
    ASSERT_EQ(sim::kOk, w.kernel->Munmap(p, addr, sim::kPageSize));
  }
  EXPECT_EQ(5u, Bsd(w)->object_cache_size());
  EXPECT_EQ(3u, w.machine.stats().object_cache_evictions);
  // Remapping an evicted file re-reads from disk...
  std::uint64_t ops = w.machine.stats().disk_ops;
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &addr, sim::kPageSize, "/f0", 0, ro));
  w.kernel->TouchRead(p, addr, 1);
  EXPECT_GT(w.machine.stats().disk_ops, ops);
  ASSERT_EQ(sim::kOk, w.kernel->Munmap(p, addr, sim::kPageSize));
  // ...while a still-cached one does not.
  ops = w.machine.stats().disk_ops;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &addr, sim::kPageSize, "/f7", 0, ro));
  w.kernel->TouchRead(p, addr, 1);
  EXPECT_EQ(ops, w.machine.stats().disk_ops);
}

TEST(BsdObjectTest, CachedObjectPinsVnode) {
  // §4: BSD VM's object cache holds vnode references, defeating the vnode
  // LRU — the cached file's vnode cannot be recycled.
  WorldConfig cfg;
  cfg.max_vnodes = 2;
  World w(VmKind::kBsd, cfg);
  w.fs.CreateFilePattern("/a", sim::kPageSize);
  w.fs.CreateFilePattern("/b", sim::kPageSize);
  w.fs.CreateFilePattern("/c", sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &addr, sim::kPageSize, "/a", 0, ro));
  ASSERT_EQ(sim::kOk, w.kernel->Munmap(p, addr, sim::kPageSize));
  // /a is unreferenced by any process but pinned by the object cache.
  EXPECT_EQ(1, w.fs.cache().Peek("/a")->usecount());
  vfs::Vnode* b = w.fs.Open("/b");
  // Only one table slot left and /a is pinned: /c cannot be opened.
  EXPECT_EQ(nullptr, w.fs.Open("/c"));
  w.fs.Close(b);
}

TEST(BsdObjectTest, PagerHashSharesObjectsAcrossMappings) {
  World w(VmKind::kBsd);
  w.fs.CreateFilePattern("/f", 4 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  kern::MapAttrs shared;
  shared.shared = true;
  sim::Vaddr a1 = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &a1, 4 * sim::kPageSize, "/f", 0, shared));
  std::size_t objs = Bsd(w)->live_objects();
  sim::Vaddr a2 = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &a2, 4 * sim::kPageSize, "/f", 0, shared));
  EXPECT_EQ(objs, Bsd(w)->live_objects());
  // Writes through one mapping are visible through the other.
  w.kernel->TouchWrite(p, a1 + sim::kPageSize, 1, std::byte{0x7e});
  std::vector<std::byte> b(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a2 + sim::kPageSize, b));
  EXPECT_EQ(std::byte{0x7e}, b[0]);
}

TEST(BsdObjectTest, CollapseFreesObscuredPages) {
  World w(VmKind::kBsd);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr addr = 0;
  const std::size_t npages = 8;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &addr, npages * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, addr, npages * sim::kPageSize, std::byte{1});
  kern::Proc* c = w.kernel->Fork(p);
  // Parent rewrites everything: full set of copies in its shadow.
  w.kernel->TouchWrite(p, addr, npages * sim::kPageSize, std::byte{2});
  w.kernel->Exit(c);
  // Next fault collapses; only one copy of each page must remain.
  w.kernel->TouchWrite(p, addr, sim::kPageSize, std::byte{3});
  EXPECT_EQ(npages, Bsd(w)->TotalAnonPages());
  w.CheckInvariants();
}

}  // namespace
