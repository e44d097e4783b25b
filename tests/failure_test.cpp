// Failure injection: swap exhaustion, physical memory exhaustion via
// wiring, kernel map-entry pool exhaustion (the §3.2 panic scenario,
// surfaced as an error here), and teardown with resources outstanding.
#include <gtest/gtest.h>

#include <vector>

#include "src/harness/world.h"
#include "tests/ref_model.h"

namespace {

using harness::VmKind;
using harness::World;
using harness::WorldConfig;

class FailureTest : public ::testing::TestWithParam<VmKind> {};

TEST_P(FailureTest, SwapExhaustionSurfacesAsNoMem) {
  WorldConfig cfg;
  cfg.ram_pages = 64;
  cfg.swap_slots = 32;  // tiny swap: total backing < working set
  World w(GetParam(), cfg);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  const std::size_t npages = 256;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, npages * sim::kPageSize, kern::MapAttrs{}));
  int err = sim::kOk;
  std::size_t written = 0;
  for (; written < npages; ++written) {
    err = w.kernel->TouchWrite(p, a + written * sim::kPageSize, 1, std::byte{1});
    if (err != sim::kOk) {
      break;
    }
  }
  EXPECT_EQ(sim::kErrNoMem, err);
  EXPECT_LT(written, npages);
  EXPECT_GT(written, 32u);  // got past RAM before running out
  // Exhaustion is a capacity failure, not a device failure: no I/O errors
  // were injected and none of the recovery machinery may have fired.
  EXPECT_EQ(0u, w.machine.stats().io_errors_injected);
  EXPECT_EQ(0u, w.machine.stats().pagein_errors);
  EXPECT_EQ(0u, w.machine.stats().pageout_retries);
  EXPECT_EQ(0u, w.machine.stats().bad_slots_remapped);
  // With both RAM and swap full the system genuinely cannot make progress;
  // free a chunk, after which the remaining data must be intact.
  ASSERT_EQ(sim::kOk, w.kernel->Munmap(p, a, 32 * sim::kPageSize));
  std::vector<std::byte> b(1);
  for (std::size_t i = 32; i + 1 < written; i += 3) {
    ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a + i * sim::kPageSize, b)) << i;
    EXPECT_EQ(std::byte{1}, b[0]);
  }
  w.CheckInvariants();
}

TEST_P(FailureTest, WiringEverythingEventuallyFails) {
  WorldConfig cfg;
  cfg.ram_pages = 64;
  cfg.swap_slots = 64;
  World w(GetParam(), cfg);
  kern::Proc* p = w.kernel->Spawn();
  int err = sim::kOk;
  int wired_regions = 0;
  for (int i = 0; i < 16; ++i) {
    sim::Vaddr a = 0;
    ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 8 * sim::kPageSize, kern::MapAttrs{}));
    err = w.kernel->Mlock(p, a, 8 * sim::kPageSize);
    if (err != sim::kOk) {
      break;
    }
    ++wired_regions;
  }
  EXPECT_EQ(sim::kErrNoMem, err);
  EXPECT_GT(wired_regions, 2);
  w.CheckInvariants();
}

TEST_P(FailureTest, KernelMapEntryPoolExhaustion) {
  WorldConfig cfg;
  cfg.bsd.kernel_map_entries = 8;
  cfg.uvm.kernel_map_entries = 8;
  World w(GetParam(), cfg);
  kern::MapAttrs attrs;
  int err = sim::kOk;
  int mapped = 0;
  for (int i = 0; i < 32; ++i) {
    sim::Vaddr addr = 0;
    err = w.vm->Map(w.vm->kernel_as(), &addr, sim::kPageSize, nullptr, 0, attrs);
    if (err != sim::kOk) {
      break;
    }
    ++mapped;
  }
  EXPECT_EQ(sim::kErrMapEntryPool, err);
  EXPECT_EQ(8, mapped);
}

// Unmapping the middle of a kernel-map entry splits it in three, so the
// unmap walk reserves both clip entries before it touches anything. A pool
// that cannot cover them fails the unmap up front and leaves the map as it
// was; once a slot frees up, the same unmap goes through.
TEST_P(FailureTest, KernelMapMidEntryUnmapNeedsTwoClipEntries) {
  WorldConfig cfg;
  cfg.bsd.kernel_map_entries = 3;
  cfg.uvm.kernel_map_entries = 3;
  World w(GetParam(), cfg);
  kern::AddressSpace& kas = w.vm->kernel_as();
  sim::Vaddr big = 0;
  sim::Vaddr small = 0;
  ASSERT_EQ(sim::kOk, w.vm->Map(kas, &big, 4 * sim::kPageSize, nullptr, 0, kern::MapAttrs{}));
  ASSERT_EQ(sim::kOk, w.vm->Map(kas, &small, sim::kPageSize, nullptr, 0, kern::MapAttrs{}));
  ASSERT_EQ(2u, w.vm->KernelMapEntries());
  const std::uint64_t denials = w.machine.stats().map_entry_pool_denials;

  // Two entries + two clips > three slots.
  EXPECT_EQ(sim::kErrMapEntryPool, w.vm->Unmap(kas, big + sim::kPageSize, sim::kPageSize));
  EXPECT_EQ(denials + 1, w.machine.stats().map_entry_pool_denials);
  EXPECT_EQ(2u, w.vm->KernelMapEntries());

  // A whole-entry unmap clips nothing and needs no reservation.
  ASSERT_EQ(sim::kOk, w.vm->Unmap(kas, small, sim::kPageSize));
  ASSERT_EQ(sim::kOk, w.vm->Unmap(kas, big + sim::kPageSize, sim::kPageSize));
  EXPECT_EQ(denials + 1, w.machine.stats().map_entry_pool_denials);
  EXPECT_EQ(2u, w.vm->KernelMapEntries()) << "the front and back of the split entry";
  w.CheckInvariants();
}

// Spawn until Spawn fails (at most `limit` processes), then exit them all.
// Returns whether a Spawn failed.
bool SpawnUntilRefusedThenExitAll(World& w, int limit) {
  std::vector<kern::Proc*> procs;
  bool refused = false;
  while (!refused && static_cast<int>(procs.size()) < limit) {
    kern::Proc* p = w.kernel->Spawn();
    refused = p == nullptr;
    if (p != nullptr) {
      procs.push_back(p);
    }
  }
  for (kern::Proc* p : procs) {
    w.kernel->Exit(p);
  }
  return refused;
}

// A Spawn that cannot allocate its whole u-area gives back the frames it
// already wired and, under BSD VM, the kernel-map entries it inserted.
TEST_P(FailureTest, RefusedSpawnGivesBackTheFramesItTook) {
  WorldConfig cfg;
  cfg.ram_pages = 30;
  World w(GetParam(), cfg);
  const std::size_t free_before = w.pm.free_pages();
  const std::size_t entries_before = w.vm->KernelMapEntries();
  ASSERT_TRUE(SpawnUntilRefusedThenExitAll(w, 64));
  EXPECT_EQ(free_before, w.pm.free_pages());
  EXPECT_EQ(entries_before, w.vm->KernelMapEntries());
  w.CheckInvariants();
}

TEST_P(FailureTest, RefusedSpawnGivesBackTheKernelMapEntriesItTook) {
  WorldConfig cfg;
  cfg.bsd.kernel_map_entries = 5;
  cfg.uvm.kernel_map_entries = 5;
  World w(GetParam(), cfg);
  const std::size_t free_before = w.pm.free_pages();
  const std::size_t entries_before = w.vm->KernelMapEntries();
  // Two entries per process under BSD VM: the third Spawn gets its u-area
  // entry but not its kernel-stack entry. UVM uses no kernel-map entry.
  EXPECT_EQ(GetParam() == VmKind::kBsd, SpawnUntilRefusedThenExitAll(w, 8));
  EXPECT_EQ(free_before, w.pm.free_pages());
  EXPECT_EQ(entries_before, w.vm->KernelMapEntries());
  w.CheckInvariants();
}

// mlock faults every page of the range in with the map already locked. A
// disk read that fails there surfaces as kErrIO and counts as exactly one
// pagein error, the same as on the ordinary fault path.
TEST_P(FailureTest, MlockOfUnreadableFileCountsOnePageinError) {
  World w(GetParam());
  kern::Proc* p = w.kernel->Spawn();
  w.fs.CreateFilePattern("/f", 4 * sim::kPageSize);
  sim::Vaddr fa = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &fa, 4 * sim::kPageSize, "/f", 0, kern::MapAttrs{}));
  sim::FaultPlan plan;
  plan.fail_reads.push_back({.nth = 1});  // the first disk read from here on
  w.machine.faults().SetPlan(sim::IoDevice::kFilesystemDisk, plan);
  const std::uint64_t errors = w.machine.stats().pagein_errors;
  const std::uint64_t faults = w.machine.stats().faults;

  EXPECT_EQ(sim::kErrIO, w.kernel->Mlock(p, fa, 4 * sim::kPageSize));
  EXPECT_EQ(errors + 1, w.machine.stats().pagein_errors);
  EXPECT_EQ(faults + 1, w.machine.stats().faults) << "the walk stops at the failed page";
  w.CheckInvariants();
}

TEST_P(FailureTest, FaultOutsideAnyMappingFails) {
  World w(GetParam());
  kern::Proc* p = w.kernel->Spawn();
  EXPECT_EQ(sim::kErrFault, w.vm->Fault(*p->as, 0x6666'0000, sim::Access::kRead));
}

TEST_P(FailureTest, WriteFaultOnReadOnlyFails) {
  World w(GetParam());
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, sim::kPageSize, ro));
  EXPECT_EQ(sim::kErrProt, w.vm->Fault(*p->as, a, sim::Access::kWrite));
  EXPECT_EQ(sim::kOk, w.vm->Fault(*p->as, a, sim::Access::kRead));
}

TEST_P(FailureTest, ExitWithEverythingOutstandingCleansUp) {
  WorldConfig cfg;
  cfg.ram_pages = 256;
  World w(GetParam(), cfg);
  std::size_t free_at_start = w.pm.free_pages();
  {
    kern::Proc* p = w.kernel->Spawn();
    sim::Vaddr a = 0;
    ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 32 * sim::kPageSize, kern::MapAttrs{}));
    w.kernel->TouchWrite(p, a, 32 * sim::kPageSize, std::byte{1});
    ASSERT_EQ(sim::kOk, w.kernel->Mlock(p, a + sim::kPageSize, 4 * sim::kPageSize));
    w.fs.CreateFilePattern("/f", 8 * sim::kPageSize);
    sim::Vaddr fa = 0;
    ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &fa, 8 * sim::kPageSize, "/f", 0, kern::MapAttrs{}));
    w.kernel->TouchWrite(p, fa, 8 * sim::kPageSize, std::byte{2});
    kern::Proc* c = w.kernel->Fork(p);
    w.kernel->TouchWrite(c, a, 8 * sim::kPageSize, std::byte{3});
    w.kernel->Exit(c);
    w.kernel->Exit(p);
  }
  // All anonymous memory returned. (File pages may legitimately stay
  // cached — BSD VM in its object cache, UVM on the vnode.)
  std::size_t cached_file_pages = 8;
  EXPECT_GE(w.pm.free_pages() + cached_file_pages, free_at_start);
  EXPECT_EQ(0u, w.swap.used_slots());
  w.CheckInvariants();
}

TEST_P(FailureTest, SwapFullThenFreedRecovers) {
  WorldConfig cfg;
  cfg.ram_pages = 64;
  cfg.swap_slots = 64;
  World w(GetParam(), cfg);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 200 * sim::kPageSize, kern::MapAttrs{}));
  std::size_t written = 0;
  while (written < 200 &&
         w.kernel->TouchWrite(p, a + written * sim::kPageSize, 1, std::byte{1}) == sim::kOk) {
    ++written;
  }
  ASSERT_LT(written, 200u);  // hit the wall
  // Free the whole mapping (releasing its frames and swap slots)...
  ASSERT_EQ(sim::kOk, w.kernel->Munmap(p, a, 200 * sim::kPageSize));
  // ...and the system can make progress again.
  sim::Vaddr b = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &b, 16 * sim::kPageSize, kern::MapAttrs{}));
  EXPECT_EQ(sim::kOk, w.kernel->TouchWrite(p, b, 16 * sim::kPageSize, std::byte{2}));
  w.CheckInvariants();
}

TEST_P(FailureTest, PageinErrorSurfacesAsEIO) {
  WorldConfig cfg;
  cfg.ram_pages = 64;
  World w(GetParam(), cfg);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  const std::size_t npages = 48;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, npages * sim::kPageSize, kern::MapAttrs{}));
  for (std::size_t i = 0; i < npages; ++i) {
    ASSERT_EQ(sim::kOk,
              w.kernel->TouchWrite(p, a + i * sim::kPageSize, 1, static_cast<std::byte>(i)));
  }
  // Push everything to swap, then make the next swap read fail once.
  w.vm->PageDaemon(w.pm.total_pages());
  sim::FaultPlan plan;
  plan.fail_reads.push_back(sim::FaultSpec{1, /*permanent=*/false});
  w.machine.faults().SetPlan(sim::IoDevice::kSwapDisk, plan);
  std::vector<std::byte> b(1);
  EXPECT_EQ(sim::kErrIO, w.kernel->ReadMem(p, a, b))
      << "expected " << sim::ErrName(sim::kErrIO) << " from the failed pagein";
  EXPECT_EQ(1u, w.machine.stats().pagein_errors);
  EXPECT_EQ(1u, w.machine.stats().io_errors_injected);
  // The fault was transient and the swap copy untouched: the very next
  // access recovers, and every page still has its data.
  for (std::size_t i = 0; i < npages; ++i) {
    ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a + i * sim::kPageSize, b)) << i;
    EXPECT_EQ(static_cast<std::byte>(i), b[0]) << i;
  }
  w.CheckInvariants();
}

TEST_P(FailureTest, PageoutRetriesUntilSuccess) {
  WorldConfig cfg;
  cfg.ram_pages = 64;
  World w(GetParam(), cfg);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  const std::size_t npages = 48;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, npages * sim::kPageSize, kern::MapAttrs{}));
  for (std::size_t i = 0; i < npages; ++i) {
    ASSERT_EQ(sim::kOk,
              w.kernel->TouchWrite(p, a + i * sim::kPageSize, 1, static_cast<std::byte>(i)));
  }
  // The next two swap writes fail transiently; the pagedaemon must retry
  // with backoff and still get the pages out.
  sim::FaultPlan plan;
  plan.fail_writes.push_back(sim::FaultSpec{1, /*permanent=*/false});
  plan.fail_writes.push_back(sim::FaultSpec{2, /*permanent=*/false});
  w.machine.faults().SetPlan(sim::IoDevice::kSwapDisk, plan);
  sim::Nanoseconds before = w.machine.clock().now();
  std::size_t freed = w.vm->PageDaemon(w.pm.total_pages());
  EXPECT_GT(freed, 0u);
  EXPECT_GT(w.machine.stats().pageout_retries, 0u);
  EXPECT_GE(w.machine.stats().io_errors_injected, 2u);
  // Backoff is charged to the virtual clock.
  EXPECT_GE(w.machine.clock().now() - before, w.machine.cost().io_retry_backoff_ns);
  // No data was lost along the way.
  std::vector<std::byte> b(1);
  for (std::size_t i = 0; i < npages; ++i) {
    ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a + i * sim::kPageSize, b)) << i;
    EXPECT_EQ(static_cast<std::byte>(i), b[0]) << i;
  }
  w.CheckInvariants();
}

// Terminate-time flushes cannot report failure to anyone: when the
// filesystem disk is permanently dead, the dirty pages are lost. That loss
// must be visible — every dropped page counts in Stats::pageout_drops, and
// the retry passes leading up to the drop count in pageout_retries (both
// VMs, one shared kern::kMaxPageoutRetries policy).
TEST_P(FailureTest, TerminateFlushDropsAreCounted) {
  WorldConfig cfg;
  cfg.bsd.object_cache_limit = 0;  // BSD: unmap terminates the object at once
  cfg.max_vnodes = 2;              // UVM: two more lookups recycle the vnode
  World w(GetParam(), cfg);
  kern::Proc* p = w.kernel->Spawn();

  const std::size_t npages = 8;
  w.fs.CreateFilePattern("/dirty", npages * sim::kPageSize);
  sim::Vaddr fa = 0;
  kern::MapAttrs shared;
  shared.shared = true;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &fa, npages * sim::kPageSize, "/dirty", 0, shared));
  ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(p, fa, npages * sim::kPageSize, std::byte{0x66}));

  // The filesystem disk dies before anything is written back: every write
  // from here on fails (probability 1/1), so no retry can ever succeed.
  sim::FaultPlan plan;
  plan.write_num = 1;
  plan.write_den = 1;
  w.machine.faults().SetPlan(sim::IoDevice::kFilesystemDisk, plan);

  // BSD VM: Munmap drops the last reference; with a zero-entry object
  // cache the vnode object is terminated (and flushed) immediately.
  ASSERT_EQ(sim::kOk, w.kernel->Munmap(p, fa, npages * sim::kPageSize));
  // UVM: the dirty pages stay cached on the vnode. Looking up two more
  // files overflows the two-entry vnode table and recycles "/dirty",
  // terminating (and flushing) its attachment. Harmless for BSD: these
  // mappings are never dirtied.
  for (const char* name : {"/g", "/h"}) {
    w.fs.CreateFilePattern(name, sim::kPageSize);
    sim::Vaddr va = 0;
    ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &va, sim::kPageSize, name, 0, kern::MapAttrs{}));
    ASSERT_EQ(sim::kOk, w.kernel->Munmap(p, va, sim::kPageSize));
  }

  const sim::Stats& s = w.machine.stats();
  EXPECT_EQ(npages, s.pageout_drops) << "every dirty page silently lost must be counted";
  // The drop came only after the full shared retry budget was spent.
  const int budget = kern::kMaxPageoutRetries;
  EXPECT_GE(s.pageout_retries, static_cast<std::uint64_t>(budget));
  EXPECT_GT(s.io_errors_injected, static_cast<std::uint64_t>(budget));
  w.CheckInvariants();
}

TEST(PartialUnmapTest, UvmFreesAnonsOnPartialUnmapBsdCannot) {
  // Real UVM's amap_unadd releases the anons of a partially unmapped range
  // at once; real BSD VM keeps the pages inside the (still referenced)
  // anonymous object until the whole object dies. Both behaviours are
  // reproduced faithfully.
  {
    World w(VmKind::kUvm);
    auto* vm = static_cast<uvm::Uvm*>(w.vm.get());
    kern::Proc* p = w.kernel->Spawn();
    sim::Vaddr a = 0;
    ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 16 * sim::kPageSize, kern::MapAttrs{}));
    w.kernel->TouchWrite(p, a, 16 * sim::kPageSize, std::byte{1});
    ASSERT_EQ(16u, vm->LiveAnons());
    ASSERT_EQ(sim::kOk, w.kernel->Munmap(p, a + 4 * sim::kPageSize, 8 * sim::kPageSize));
    EXPECT_EQ(8u, vm->LiveAnons());
    w.CheckInvariants();
  }
  {
    World w(VmKind::kBsd);
    auto* vm = static_cast<bsdvm::BsdVm*>(w.vm.get());
    kern::Proc* p = w.kernel->Spawn();
    sim::Vaddr a = 0;
    ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 16 * sim::kPageSize, kern::MapAttrs{}));
    w.kernel->TouchWrite(p, a, 16 * sim::kPageSize, std::byte{1});
    ASSERT_EQ(sim::kOk, w.kernel->Munmap(p, a + 4 * sim::kPageSize, 8 * sim::kPageSize));
    EXPECT_EQ(16u, vm->TotalAnonPages());  // the object still holds them all
    // Only full teardown releases them.
    ASSERT_EQ(sim::kOk, w.kernel->Munmap(p, a, 16 * sim::kPageSize));
    EXPECT_EQ(0u, vm->TotalAnonPages());
    w.CheckInvariants();
  }
}

INSTANTIATE_TEST_SUITE_P(BothVms, FailureTest, ::testing::Values(VmKind::kBsd, VmKind::kUvm),
                         refmodel::VmName);

}  // namespace
