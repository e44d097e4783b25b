// Unit tests for the physical memory layer: frame allocation, page queues,
// wiring, contents, the cost/stat accounting other layers rely on, and the
// radix page store behind both VMs' object page lists.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/phys/page_store.h"
#include "src/phys/phys_mem.h"
#include "src/sim/machine.h"
#include "src/sim/rng.h"

namespace {

class PhysTest : public ::testing::Test {
 protected:
  sim::Machine machine;
  phys::PhysMem pm{machine, 64};
};

TEST_F(PhysTest, FreshMemoryIsAllFree) {
  EXPECT_EQ(64u, pm.total_pages());
  EXPECT_EQ(64u, pm.free_pages());
  EXPECT_EQ(0u, pm.active_pages());
  EXPECT_EQ(0u, pm.inactive_pages());
}

TEST_F(PhysTest, AllocTakesFromFreeList) {
  phys::Page* p = pm.AllocPage(phys::OwnerKind::kKernel, this, 7, /*zero=*/false);
  ASSERT_NE(nullptr, p);
  EXPECT_EQ(63u, pm.free_pages());
  EXPECT_EQ(phys::OwnerKind::kKernel, p->owner_kind);
  EXPECT_EQ(this, p->owner);
  EXPECT_EQ(7u, p->offset);
  EXPECT_EQ(phys::PageQueue::kNone, p->queue);
}

TEST_F(PhysTest, AllocZeroClearsContentsAndCharges) {
  phys::Page* p = pm.AllocPage(phys::OwnerKind::kKernel, this, 0, /*zero=*/false);
  pm.Data(p)[123] = std::byte{0xff};
  pm.FreePage(p);
  sim::Nanoseconds before = machine.clock().now();
  // The freed frame is reallocated (FIFO): request zeroed memory.
  phys::Page* q;
  do {
    q = pm.AllocPage(phys::OwnerKind::kKernel, this, 0, /*zero=*/true);
  } while (q != p && q != nullptr);
  ASSERT_EQ(p, q);
  EXPECT_EQ(std::byte{0}, pm.Data(q)[123]);
  EXPECT_GT(machine.clock().now(), before);
  EXPECT_GT(machine.stats().pages_zeroed, 0u);
}

TEST_F(PhysTest, ExhaustionReturnsNull) {
  for (std::size_t i = 0; i < 64; ++i) {
    ASSERT_NE(nullptr, pm.AllocPage(phys::OwnerKind::kKernel, this, i, false));
  }
  EXPECT_EQ(nullptr, pm.AllocPage(phys::OwnerKind::kKernel, this, 99, false));
}

TEST_F(PhysTest, FreeReturnsToFreeList) {
  phys::Page* p = pm.AllocPage(phys::OwnerKind::kKernel, this, 0, false);
  pm.FreePage(p);
  EXPECT_EQ(64u, pm.free_pages());
  EXPECT_EQ(phys::OwnerKind::kNone, p->owner_kind);
  EXPECT_EQ(nullptr, p->owner);
}

TEST_F(PhysTest, ActivateDeactivateMoveBetweenQueues) {
  phys::Page* p = pm.AllocPage(phys::OwnerKind::kKernel, this, 0, false);
  pm.Activate(p);
  EXPECT_EQ(phys::PageQueue::kActive, p->queue);
  EXPECT_EQ(1u, pm.active_pages());
  pm.Deactivate(p);
  EXPECT_EQ(phys::PageQueue::kInactive, p->queue);
  EXPECT_EQ(0u, pm.active_pages());
  EXPECT_EQ(1u, pm.inactive_pages());
  pm.Dequeue(p);
  EXPECT_EQ(phys::PageQueue::kNone, p->queue);
  EXPECT_EQ(0u, pm.inactive_pages());
  pm.FreePage(p);
}

TEST_F(PhysTest, InactiveQueueIsFifo) {
  phys::Page* a = pm.AllocPage(phys::OwnerKind::kKernel, this, 0, false);
  phys::Page* b = pm.AllocPage(phys::OwnerKind::kKernel, this, 1, false);
  phys::Page* c = pm.AllocPage(phys::OwnerKind::kKernel, this, 2, false);
  pm.Deactivate(a);
  pm.Deactivate(b);
  pm.Deactivate(c);
  EXPECT_EQ(a, pm.inactive_queue().head());
  pm.Dequeue(a);
  EXPECT_EQ(b, pm.inactive_queue().head());
  EXPECT_EQ(b->q_next, c);
  pm.Dequeue(b);
  pm.Dequeue(c);
  for (phys::Page* p : {a, b, c}) {
    pm.FreePage(p);
  }
}

TEST_F(PhysTest, WireRemovesFromQueuesUnwireReactivates) {
  phys::Page* p = pm.AllocPage(phys::OwnerKind::kKernel, this, 0, false);
  pm.Activate(p);
  pm.Wire(p);
  EXPECT_EQ(1, p->wire_count);
  EXPECT_EQ(phys::PageQueue::kNone, p->queue);
  pm.Wire(p);
  EXPECT_EQ(2, p->wire_count);
  pm.Unwire(p);
  EXPECT_EQ(phys::PageQueue::kNone, p->queue);  // still wired once
  pm.Unwire(p);
  EXPECT_EQ(phys::PageQueue::kActive, p->queue);
  pm.Dequeue(p);
  pm.FreePage(p);
}

TEST_F(PhysTest, CopyPageCopiesContentsAndCharges) {
  phys::Page* a = pm.AllocPage(phys::OwnerKind::kKernel, this, 0, true);
  phys::Page* b = pm.AllocPage(phys::OwnerKind::kKernel, this, 1, true);
  pm.Data(a)[0] = std::byte{0x42};
  pm.Data(a)[4095] = std::byte{0x24};
  sim::Nanoseconds before = machine.clock().now();
  pm.CopyPage(a, b);
  EXPECT_EQ(std::byte{0x42}, pm.Data(b)[0]);
  EXPECT_EQ(std::byte{0x24}, pm.Data(b)[4095]);
  EXPECT_EQ(machine.cost().page_copy_ns, machine.clock().now() - before);
  EXPECT_EQ(1u, machine.stats().pages_copied);
  pm.FreePage(a);
  pm.FreePage(b);
}

TEST_F(PhysTest, FreeTargetDefaultsToFivePercent) {
  EXPECT_EQ(64u / 20 + 4, pm.free_target());
  EXPECT_FALSE(pm.NeedsPageDaemon());
  std::vector<phys::Page*> held;
  while (pm.free_pages() > pm.free_target() - 1) {
    held.push_back(pm.AllocPage(phys::OwnerKind::kKernel, this, 0, false));
  }
  EXPECT_TRUE(pm.NeedsPageDaemon());
  for (phys::Page* p : held) {
    pm.FreePage(p);
  }
}

TEST_F(PhysTest, FreeReserveBlocksNormalAllocsButNotEmergency) {
  pm.set_free_reserve(8);
  std::vector<phys::Page*> held;
  while (pm.free_pages() > 8) {
    held.push_back(pm.AllocPage(phys::OwnerKind::kKernel, this, 0, false));
    ASSERT_NE(nullptr, held.back());
  }
  // Only the emergency reserve remains: a normal request is refused (and
  // counted) so the caller reclaims and retries instead of deadlocking the
  // daemon on its own working memory.
  EXPECT_EQ(nullptr, pm.AllocPage(phys::OwnerKind::kKernel, this, 0, false));
  EXPECT_EQ(1u, machine.stats().page_alloc_failures);
  EXPECT_EQ(8u, pm.free_pages());
  phys::Page* p =
      pm.AllocPage(phys::OwnerKind::kKernel, this, 0, false, phys::AllocPri::kEmergency);
  ASSERT_NE(nullptr, p);
  EXPECT_EQ(1u, machine.stats().emergency_page_allocs);
  pm.FreePage(p);
  for (phys::Page* h : held) {
    pm.FreePage(h);
  }
}

TEST_F(PhysTest, PageoutScopeMakesAllocsEmergency) {
  pm.set_free_reserve(64);  // everything below the reserve from the start
  EXPECT_FALSE(pm.in_pageout());
  EXPECT_EQ(nullptr, pm.AllocPage(phys::OwnerKind::kKernel, this, 0, false));
  {
    phys::PageoutScope scope(pm);
    EXPECT_TRUE(pm.in_pageout());
    phys::Page* p = pm.AllocPage(phys::OwnerKind::kKernel, this, 0, false);
    ASSERT_NE(nullptr, p);
    EXPECT_EQ(1u, machine.stats().emergency_page_allocs);
    pm.FreePage(p);
  }
  EXPECT_FALSE(pm.in_pageout());
}

TEST_F(PhysTest, BalloonAbsorbsFreeFramesDownToFloorOnly) {
  phys::Page* a = pm.AllocPage(phys::OwnerKind::kKernel, this, 0, false);
  ASSERT_NE(nullptr, a);
  // Ask to balloon more than exists: absorption stops at the floor (4
  // frames with no watermarks set) and the rest is a deficit.
  pm.SetBalloonTarget(100);
  EXPECT_EQ(59u, pm.balloon_pages());
  EXPECT_EQ(4u, pm.free_pages());
  // Freed frames feed the deficit one at a time instead of re-entering
  // service, but never squeeze the free list below the floor.
  pm.FreePage(a);
  EXPECT_EQ(60u, pm.balloon_pages());
  EXPECT_EQ(4u, pm.free_pages());
  // Growing returns frames to the free list.
  pm.SetBalloonTarget(0);
  EXPECT_EQ(0u, pm.balloon_pages());
  EXPECT_EQ(64u, pm.free_pages());
}

TEST_F(PhysTest, BalloonHonorsFreeReserveFloor) {
  pm.set_free_reserve(16);
  pm.SetBalloonTarget(100);
  // The floor is max(free_min, free_reserve, 4): the balloon may not eat
  // the emergency pool the pageout path depends on.
  EXPECT_EQ(16u, pm.free_pages());
  EXPECT_EQ(48u, pm.balloon_pages());
  pm.SetBalloonTarget(0);
  EXPECT_EQ(64u, pm.free_pages());
}

TEST_F(PhysTest, PageAtRoundTripsPfn) {
  phys::Page* p = pm.AllocPage(phys::OwnerKind::kKernel, this, 0, false);
  EXPECT_EQ(p, pm.PageAt(p->pfn));
  pm.FreePage(p);
}

TEST_F(PhysTest, DistinctFramesHaveDistinctStorage) {
  phys::Page* a = pm.AllocPage(phys::OwnerKind::kKernel, this, 0, true);
  phys::Page* b = pm.AllocPage(phys::OwnerKind::kKernel, this, 1, true);
  pm.Data(a)[10] = std::byte{1};
  EXPECT_EQ(std::byte{0}, pm.Data(b)[10]);
  pm.FreePage(a);
  pm.FreePage(b);
}

// --- PageStore against std::map, the structure it replaced ---

// A seeded random mix of every PageStore mutation and lookup, each run on a
// std::map as well; size and ascending iteration must agree after every op.
// Two keys in five sit at and around 2 MB chunk boundaries, at the 64-bit
// word boundaries of chunk 0's occupancy bitmap, or far out (a chunk each);
// two in five fall in one dense chunk filled up front, which stays about
// half full and so is never freed; the rest fall in one sparse chunk, whose
// mutations only touch a few seeded offsets, so iteration, lower_bound and
// erase through an iterator must jump across empty bitmap words. Every
// chunk comes from the pool and goes back to it.
TEST(PageStoreTest, MatchesStdMapPooled) {
  constexpr std::uint64_t kChunk = phys::PageStore::kChunkPages;
  constexpr std::uint64_t kDense = 5 * kChunk;
  constexpr std::uint64_t kSparse = 9 * kChunk;
  constexpr std::size_t kOps = 4000;
  std::vector<std::uint64_t> edges = {0, 1, (1ull << 20) + 3, (1ull << 32) + 7, (1ull << 51) - 1};
  for (std::uint64_t c = 1; c <= 4; ++c) {
    for (std::uint64_t k = c * kChunk - 2; k <= c * kChunk + 1; ++k) {
      edges.push_back(k);  // 510, 511, 512, 513, 1022, ...
    }
  }
  for (std::uint64_t k = 64; k < kChunk; k += 64) {
    edges.push_back(k - 1);  // 63, 64, 127, 128, ..., 447, 448
    edges.push_back(k);
  }
  std::array<phys::Page, 3> pages{};
  sim::Rng rng(23);
  std::vector<std::uint64_t> sparse;
  for (int i = 0; i < 6; ++i) {
    sparse.push_back(kSparse + rng.Below(kChunk));
  }
  sim::PoolResource pool;
  sim::Stats stats;
  {
    using Ref = std::map<std::uint64_t, phys::Page*>;
    using Entries = std::vector<std::pair<std::uint64_t, phys::Page*>>;
    phys::PageStore store(pool, &stats);
    Ref ref;
    auto same = [&](phys::PageStore::const_iterator it, Ref::const_iterator want) {
      if (want == ref.end()) {
        return it == store.end();
      }
      return it != store.end() && it->first == want->first && it->second == want->second;
    };
    for (std::uint64_t k = kDense; k < kDense + kChunk; ++k) {
      store.emplace(k, &pages[0]);
      ref.emplace(k, &pages[0]);
    }
    for (std::uint64_t k : sparse) {
      store.Put(k, &pages[1]);
      ref[k] = &pages[1];
    }
    for (std::size_t op = 0; op < kOps; ++op) {
      const std::uint64_t kind = rng.Below(7);
      const bool mutates = kind <= 3;
      std::uint64_t key;
      switch (rng.Below(5)) {
        case 0:
        case 1:
          key = edges[rng.Below(edges.size())];
          break;
        case 2:
        case 3:
          key = kDense + rng.Below(kChunk);
          break;
        default:
          key = mutates ? sparse[rng.Below(sparse.size())] : kSparse + rng.Below(kChunk);
          break;
      }
      phys::Page* page = &pages[rng.Below(pages.size())];
      const Ref::const_iterator at = ref.find(key);
      switch (kind) {
        case 0:
          if (at == ref.end()) {
            store.emplace(key, page);
            ref.emplace(key, page);
          }
          break;
        case 1:
          store.Put(key, page);
          ref[key] = page;
          break;
        case 2:
          ASSERT_EQ(ref.erase(key), store.erase(key)) << "op " << op;
          break;
        case 3:
          if (at != ref.end()) {
            ASSERT_TRUE(same(store.erase(store.find(key)), ref.erase(at))) << "op " << op;
          }
          break;
        case 4:
          ASSERT_EQ(at == ref.end() ? nullptr : at->second, store.Lookup(key)) << "op " << op;
          break;
        case 5:
          ASSERT_TRUE(same(store.find(key), at)) << "op " << op;
          break;
        default:
          ASSERT_TRUE(same(store.lower_bound(key), ref.lower_bound(key))) << "op " << op;
          break;
      }
      ASSERT_EQ(ref.size(), store.size()) << "op " << op;
      Entries got;
      for (const auto& kv : store) {
        got.push_back(kv);
      }
      ASSERT_EQ(Entries(ref.begin(), ref.end()), got) << "op " << op;
    }
    std::set<std::uint64_t> chunks;
    for (const auto& [key, page] : ref) {
      chunks.insert(key >> phys::PageStore::kChunkShift);
    }
    EXPECT_EQ(chunks.size(), pool.Aggregate().live);
  }
  EXPECT_EQ(0u, pool.Aggregate().live);  // every chunk went back to the pool
}

}  // namespace
