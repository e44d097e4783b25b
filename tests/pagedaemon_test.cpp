// Pagedaemon tests: the shared queue scan on its own (phys::ScanQueues),
// reclaim policy (second chance, clean-first), clustered anonymous pageout
// with swap-slot reassignment (§6), file-page writeback, and refault
// correctness after reclaim.
#include <gtest/gtest.h>

#include <vector>

#include "src/harness/world.h"
#include "src/phys/pagedaemon.h"
#include "tests/ref_model.h"

namespace {

// The scan both VMs share, on a bare PhysMem with stub per-VM callables:
// the policy either pagedaemon inherits, pinned without either VM.
class ScanQueuesTest : public ::testing::Test {
 protected:
  // `n` kernel-owned pages on the inactive queue, oldest first.
  std::vector<phys::Page*> Inactive(std::size_t n) {
    std::vector<phys::Page*> pages;
    for (std::size_t i = 0; i < n; ++i) {
      pages.push_back(pm.AllocPage(phys::OwnerKind::kKernel, this, i, /*zero=*/false));
      pm.Deactivate(pages.back());
    }
    return pages;
  }

  // Scan for one more free frame. Contained pages are parked, reclaimed
  // pages freed; both are recorded in order.
  std::size_t ScanForOne() {
    return phys::ScanQueues(
        pm, pm.free_pages() + 1,
        [this](phys::Page* p) {
          contained.push_back(p);
          pm.Dequeue(p);
        },
        [this](phys::Page* p) {
          reclaimed.push_back(p);
          pm.FreePage(p);
          return std::size_t{1};
        });
  }

  sim::Machine machine;
  phys::PhysMem pm{machine, 64};
  std::vector<phys::Page*> contained;
  std::vector<phys::Page*> reclaimed;
};

TEST_F(ScanQueuesTest, PoisonIsContainedBeforeTheReferenceBit) {
  auto pages = Inactive(3);
  pages[0]->referenced = true;
  ASSERT_TRUE(pm.PoisonPfn(pages[0]->pfn));
  sim::Nanoseconds before = machine.clock().now();
  EXPECT_EQ(1u, ScanForOne());
  EXPECT_EQ(std::vector<phys::Page*>{pages[0]}, contained);
  EXPECT_TRUE(pages[0]->referenced);  // no second chance for a poisoned frame
  EXPECT_EQ(std::vector<phys::Page*>{pages[1]}, reclaimed);
  EXPECT_GE(machine.clock().now() - before, machine.cost().poison_contain_ns);
}

TEST_F(ScanQueuesTest, ReferencedPagesAreReactivated) {
  auto pages = Inactive(3);
  pages[0]->referenced = true;
  EXPECT_EQ(1u, ScanForOne());
  EXPECT_EQ(phys::PageQueue::kActive, pages[0]->queue);
  EXPECT_FALSE(pages[0]->referenced);
  EXPECT_EQ(std::vector<phys::Page*>{pages[1]}, reclaimed);
  EXPECT_TRUE(contained.empty());
}

TEST_F(ScanQueuesTest, WiredAndLoanedPagesAreDequeuedUnreclaimed) {
  auto pages = Inactive(3);
  pages[0]->wire_count = 1;  // pinned while queued, as a racing wire leaves it
  pages[1]->loan_count = 1;
  EXPECT_EQ(1u, ScanForOne());
  EXPECT_EQ(phys::PageQueue::kNone, pages[0]->queue);
  EXPECT_EQ(phys::PageQueue::kNone, pages[1]->queue);
  EXPECT_EQ(std::vector<phys::Page*>{pages[2]}, reclaimed);
  pages[0]->wire_count = 0;
  pages[1]->loan_count = 0;
}

TEST_F(ScanQueuesTest, ReclaimThatFreesNothingStillReturns) {
  Inactive(8);
  std::size_t calls = 0;
  // Every reclaim fails and re-activates its page, like a full swap device:
  // only the guard ends the scan, after four laps of memory plus 64 steps.
  std::size_t freed = phys::ScanQueues(
      pm, pm.total_pages(), [](phys::Page*) { FAIL() << "nothing is poisoned"; },
      [&](phys::Page* p) {
        ++calls;
        pm.Activate(p);
        return std::size_t{0};
      });
  EXPECT_EQ(0u, freed);
  EXPECT_EQ(pm.total_pages() * 4 + 64, calls);
}

using harness::VmKind;
using harness::World;
using harness::WorldConfig;

class DaemonTest : public ::testing::TestWithParam<VmKind> {};

TEST_P(DaemonTest, ReclaimsCleanFilePagesWithoutIo) {
  WorldConfig cfg;
  cfg.ram_pages = 512;
  World w(GetParam(), cfg);
  w.fs.CreateFilePattern("/f", 64 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &a, 64 * sim::kPageSize, "/f", 0, ro));
  w.kernel->TouchRead(p, a, 64 * sim::kPageSize);
  std::uint64_t writes = w.machine.stats().disk_pages_written;
  std::uint64_t swap_outs = w.machine.stats().swap_pages_out;
  std::size_t freed = w.vm->PageDaemon(w.pm.free_pages() + 32);
  EXPECT_GE(freed, 32u);
  EXPECT_EQ(writes, w.machine.stats().disk_pages_written);  // clean: no I/O
  EXPECT_EQ(swap_outs, w.machine.stats().swap_pages_out);
  // Refault re-reads the file correctly.
  std::vector<std::byte> b(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a, b));
  EXPECT_EQ(vfs::Filesystem::PatternByte("/f", 0), b[0]);
}

TEST_P(DaemonTest, DirtyFilePagesAreWrittenBack) {
  WorldConfig cfg;
  cfg.ram_pages = 512;
  World w(GetParam(), cfg);
  w.fs.CreateFilePattern("/f", 16 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  kern::MapAttrs shared;
  shared.shared = true;
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &a, 16 * sim::kPageSize, "/f", 0, shared));
  w.kernel->TouchWrite(p, a, 16 * sim::kPageSize, std::byte{0x3f});
  // Reclaim everything reclaimable.
  w.vm->PageDaemon(w.pm.total_pages());
  EXPECT_GT(w.machine.stats().disk_pages_written, 0u);
  std::vector<std::byte> b(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a + 5 * sim::kPageSize, b));
  EXPECT_EQ(std::byte{0x3f}, b[0]);
}

TEST_P(DaemonTest, ReferencedPagesGetASecondChance) {
  WorldConfig cfg;
  cfg.ram_pages = 256;
  World w(GetParam(), cfg);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr hot = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &hot, 4 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, hot, 4 * sim::kPageSize, std::byte{0x11});
  sim::Vaddr cold = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &cold, 64 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, cold, 64 * sim::kPageSize, std::byte{0x22});
  // Re-reference the hot pages, then apply mild pressure.
  w.kernel->TouchRead(p, hot, 4 * sim::kPageSize);
  w.vm->PageDaemon(w.pm.free_pages() + 16);
  // The hot pages should still be resident (no fault to read them).
  std::uint64_t faults = w.machine.stats().faults;
  w.kernel->TouchRead(p, hot, 4 * sim::kPageSize);
  EXPECT_EQ(faults, w.machine.stats().faults);
}

TEST_P(DaemonTest, ZeroFillCleanPageRefaultsAsZero) {
  WorldConfig cfg;
  cfg.ram_pages = 256;
  World w(GetParam(), cfg);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 8 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchRead(p, a, 8 * sim::kPageSize);  // read faults: clean zero pages
  std::uint64_t swap_outs = w.machine.stats().swap_pages_out;
  w.vm->PageDaemon(w.pm.total_pages());
  EXPECT_EQ(swap_outs, w.machine.stats().swap_pages_out);  // nothing to write
  std::vector<std::byte> b(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a + 3 * sim::kPageSize, b));
  EXPECT_EQ(std::byte{0}, b[0]);
}

TEST_P(DaemonTest, SwapRoundTripPreservesEveryByte) {
  WorldConfig cfg;
  cfg.ram_pages = 128;
  World w(GetParam(), cfg);
  kern::Proc* p = w.kernel->Spawn();
  const std::size_t npages = 64;
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, npages * sim::kPageSize, kern::MapAttrs{}));
  std::vector<std::byte> pattern(sim::kPageSize);
  for (std::size_t i = 0; i < npages; ++i) {
    for (std::size_t j = 0; j < sim::kPageSize; ++j) {
      pattern[j] = static_cast<std::byte>((i * 131 + j * 7) & 0xff);
    }
    ASSERT_EQ(sim::kOk, w.kernel->WriteMem(p, a + i * sim::kPageSize, pattern));
  }
  w.vm->PageDaemon(w.pm.total_pages());  // force everything out
  std::vector<std::byte> back(sim::kPageSize);
  for (std::size_t i = 0; i < npages; ++i) {
    ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a + i * sim::kPageSize, back));
    for (std::size_t j = 0; j < sim::kPageSize; ++j) {
      ASSERT_EQ(static_cast<std::byte>((i * 131 + j * 7) & 0xff), back[j])
          << "page " << i << " byte " << j;
    }
  }
  w.CheckInvariants();
}

TEST_P(DaemonTest, RepagingDirtiedSwappedPageReusesCycle) {
  WorldConfig cfg;
  cfg.ram_pages = 128;
  World w(GetParam(), cfg);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 64 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 64 * sim::kPageSize, std::byte{0x01});
  w.vm->PageDaemon(w.pm.total_pages());
  // Swap in, re-dirty, swap out again, read back.
  w.kernel->TouchWrite(p, a, 64 * sim::kPageSize, std::byte{0x02});
  w.vm->PageDaemon(w.pm.total_pages());
  std::vector<std::byte> b(1);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a + i * sim::kPageSize, b));
    ASSERT_EQ(std::byte{0x02}, b[0]);
  }
  w.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(BothVms, DaemonTest, ::testing::Values(VmKind::kBsd, VmKind::kUvm),
                         refmodel::VmName);

TEST(DaemonClusteringTest, UvmClustersAnonPageoutBsdDoesNot) {
  auto ops_for = [](VmKind kind) {
    WorldConfig cfg;
    cfg.ram_pages = 256;
    World w(kind, cfg);
    kern::Proc* p = w.kernel->Spawn();
    sim::Vaddr a = 0;
    int err = w.kernel->MmapAnon(p, &a, 128 * sim::kPageSize, kern::MapAttrs{});
    EXPECT_EQ(sim::kOk, err);
    for (int i = 0; i < 128; ++i) {
      w.kernel->TouchWrite(p, a + i * sim::kPageSize, 1, std::byte{1});
    }
    std::uint64_t before_ops = w.machine.stats().swap_ops;
    std::uint64_t before_pages = w.machine.stats().swap_pages_out;
    w.vm->PageDaemon(w.pm.total_pages());
    std::uint64_t pages = w.machine.stats().swap_pages_out - before_pages;
    std::uint64_t ops = w.machine.stats().swap_ops - before_ops;
    EXPECT_GT(pages, 64u);
    return std::pair(ops, pages);
  };
  auto [bsd_ops, bsd_pages] = ops_for(VmKind::kBsd);
  auto [uvm_ops, uvm_pages] = ops_for(VmKind::kUvm);
  EXPECT_EQ(bsd_ops, bsd_pages);           // one page per operation
  EXPECT_LE(uvm_ops * 8, uvm_pages);       // at least 8-page average clusters
}

TEST(DaemonClusteringTest, UvmReassignsSwapSlotsContiguously) {
  // Dirty pages at scattered offsets still leave as one contiguous run:
  // the §6 dynamic reassignment of swap location.
  WorldConfig cfg;
  cfg.ram_pages = 8192;
  World w(VmKind::kUvm, cfg);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 64 * sim::kPageSize, kern::MapAttrs{}));
  // Touch pages at offsets 3, 5, 7, ... (the paper's example).
  for (int i = 3; i < 35; i += 2) {
    w.kernel->TouchWrite(p, a + i * sim::kPageSize, 1, std::byte{9});
  }
  std::uint64_t before = w.machine.stats().swap_ops;
  w.vm->PageDaemon(w.pm.total_pages());
  std::uint64_t ops = w.machine.stats().swap_ops - before;
  EXPECT_EQ(1u, ops);  // 16 scattered dirty pages, one clustered write
  w.CheckInvariants();
}

}  // namespace
