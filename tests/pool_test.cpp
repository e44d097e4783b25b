// The slab/arena allocation layer (src/sim/pool.h, DESIGN.md §14):
// determinism guarantees (LIFO reuse, ascending addresses within a slab),
// stats accounting, size-class routing and refill sizes, the teardown leak
// assert, and whole-simulator double-run identity with every pooled
// structure going through the machine's one resource.
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/world.h"
#include "src/kern/fleet.h"
#include "src/mmu/pmap.h"
#include "src/sim/pool.h"

namespace {

using harness::VmKind;
using harness::World;

struct Widget {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

// Widgets per refill: a 16-byte class fills one slab.
constexpr std::size_t kWidgetsPerSlab = sim::PoolResource::kSlabBytes / sizeof(Widget);

TEST(PoolTest, LifoReuseReturnsLastFreedBlock) {
  sim::PoolResource pool;
  Widget* x = pool.New<Widget>();
  Widget* y = pool.New<Widget>();
  pool.Delete(x);
  // Strict LIFO: the freed block is the very next one handed out.
  Widget* z = pool.New<Widget>();
  EXPECT_EQ(x, z);
  pool.Delete(y);
  pool.Delete(z);
}

TEST(PoolTest, MagazinesHandOutAscendingAddresses) {
  sim::PoolResource pool;
  std::vector<Widget*> blocks;
  for (std::size_t i = 0; i < kWidgetsPerSlab; ++i) {
    blocks.push_back(pool.New<Widget>());
  }
  EXPECT_EQ(pool.Aggregate().slab_refills, 1u);
  // One slab, carved back-to-front onto the freelist: consecutive News
  // walk it in ascending address order.
  for (std::size_t i = 1; i < blocks.size(); ++i) {
    EXPECT_LT(blocks[i - 1], blocks[i]) << "block " << i << " out of order";
  }
  for (Widget* w : blocks) {
    pool.Delete(w);
  }
}

TEST(PoolTest, StatsCountAllocsFreesRefillsHighWater) {
  sim::PoolResource pool;
  const std::size_t n = kWidgetsPerSlab + 1;  // force a second refill
  std::vector<Widget*> blocks;
  for (std::size_t i = 0; i < n; ++i) {
    blocks.push_back(pool.New<Widget>());
  }
  EXPECT_EQ(pool.Aggregate().allocs, n);
  EXPECT_EQ(pool.Aggregate().live, n);
  EXPECT_EQ(pool.Aggregate().high_water, n);
  EXPECT_EQ(pool.Aggregate().slab_refills, 2u);
  for (Widget* w : blocks) {
    pool.Delete(w);
  }
  EXPECT_EQ(pool.Aggregate().frees, n);
  EXPECT_EQ(pool.Aggregate().live, 0u);
  EXPECT_EQ(pool.Aggregate().high_water, n);  // high water is sticky
  // Churn after the drain reuses freelist blocks: no new refill.
  Widget* w = pool.New<Widget>();
  pool.Delete(w);
  EXPECT_EQ(pool.Aggregate().slab_refills, 2u);
}

TEST(PoolResourceTest, SizeClassesAreSharedAndLifo) {
  sim::PoolResource res;
  void* a = res.Allocate(24);  // rounds to the 32-byte class
  void* b = res.Allocate(32);  // same class
  res.Deallocate(a, 24);
  void* c = res.Allocate(30);  // same class again: LIFO returns a
  EXPECT_EQ(a, c);
  // A typed object of the same size shares the class (and its slab).
  auto* pair = res.New<std::pair<Widget, Widget>>();
  EXPECT_EQ(res.Aggregate().slab_refills, 1u);
  void* d = res.Allocate(2000);  // a large class (1 KB steps)
  EXPECT_EQ(res.Aggregate().slab_refills, 2u);
  res.Deallocate(b, 32);
  res.Deallocate(c, 30);
  res.Delete(pair);
  res.Deallocate(d, 2000);
  EXPECT_EQ(res.Aggregate().live, 0u);
  EXPECT_EQ(res.Aggregate().allocs, 5u);
  EXPECT_EQ(res.Aggregate().frees, 5u);
}

TEST(PoolResourceTest, PageTablesRefillOneAtATime) {
  // An 8 KB page table is the only block of its class a refill carves, so
  // no table is made resident on the host before a pmap asks for it.
  sim::PoolResource res;
  mmu::PtTable* a = res.New<mmu::PtTable>();
  EXPECT_EQ(res.Aggregate().slab_refills, 1u);
  mmu::PtTable* b = res.New<mmu::PtTable>();
  EXPECT_EQ(res.Aggregate().slab_refills, 2u);
  res.Delete(a);
  mmu::PtTable* c = res.New<mmu::PtTable>();
  EXPECT_EQ(a, c);
  EXPECT_EQ(res.Aggregate().slab_refills, 2u);
  res.Delete(b);
  res.Delete(c);
}

TEST(PoolResourceTest, HugeBlocksBypassTheArena) {
  sim::PoolResource res;
  const std::size_t huge = sim::PoolResource::kDirectBytes + 1;
  void* p = res.Allocate(huge);
  ASSERT_NE(p, nullptr);
  // Direct allocations are counted but never pin arena chunks.
  EXPECT_EQ(res.arena_bytes(), 0u);
  EXPECT_EQ(res.Aggregate().allocs, 1u);
  res.Deallocate(p, huge);
  EXPECT_EQ(res.Aggregate().live, 0u);
}

TEST(PoolAllocatorTest, PooledMapDrainsItsResource) {
  sim::PoolResource res;
  {
    using Alloc = sim::PoolAllocator<std::pair<const int, int>>;
    std::map<int, int, std::less<int>, Alloc> m{Alloc(res)};
    for (int i = 0; i < 1000; ++i) {
      m[i] = i;
    }
    EXPECT_GE(res.Aggregate().live, 1000u);
  }
  // The map's teardown returned every node; the leak assert in ~PoolResource
  // would abort otherwise.
  EXPECT_EQ(res.Aggregate().live, 0u);
  EXPECT_EQ(res.Aggregate().allocs, res.Aggregate().frees);
}

TEST(PoolDeathTest, LeakedBlockAssertsAtTeardown) {
  EXPECT_DEATH(
      {
        sim::PoolResource pool;
        (void)pool.New<Widget>();  // never deleted
      },
      "slab blocks still live at teardown");
}

TEST(MachinePoolsTest, AggregateCoversAFleetRun) {
  for (VmKind kind : {VmKind::kBsd, VmKind::kUvm}) {
    World w(kind);
    kern::FleetConfig cfg;
    cfg.target_ops = 20000;
    kern::FleetWorkload fleet(*w.kernel, cfg);
    const kern::FleetCounters& c = fleet.Run();
    EXPECT_GE(c.ops, cfg.target_ops);
    sim::PoolStats agg = w.machine.pools().Aggregate();
    EXPECT_GT(agg.allocs, 0u) << "no metadata allocation went through the pool";
    EXPECT_GT(agg.slab_refills, 0u);
    EXPECT_GE(agg.high_water, agg.live);
    EXPECT_EQ(agg.live, agg.allocs - agg.frees);
  }
}

TEST(PoolDeterminismTest, FleetDoubleRunsAreIdentical) {
  for (VmKind kind : {VmKind::kBsd, VmKind::kUvm}) {
    std::vector<std::uint64_t> fp;
    for (int run = 0; run < 2; ++run) {
      World w(kind);
      kern::FleetConfig cfg;
      cfg.target_ops = 20000;
      kern::FleetWorkload fleet(*w.kernel, cfg);
      const kern::FleetCounters& c = fleet.Run();
      sim::PoolStats agg = w.machine.pools().Aggregate();
      std::vector<std::uint64_t> cur = {
          c.ops,       c.requests,    c.churns,     c.builds,
          c.forks,     c.execs,       c.soft_errors, c.workers_respawned,
          w.machine.clock().now(),    w.machine.stats().faults,
          agg.allocs,  agg.frees,     agg.slab_refills, agg.high_water,
      };
      if (run == 0) {
        fp = cur;
      } else {
        EXPECT_EQ(fp, cur) << "fleet double-run diverged on "
                           << (kind == VmKind::kBsd ? "bsdvm" : "uvm");
      }
    }
  }
}

}  // namespace
