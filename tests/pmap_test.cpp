// Unit tests for the pmap (simulated MMU) layer: translations, protection,
// pv-entry reverse maps, wiring counts, and i386 page-table-page modelling.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/mmu/pmap.h"
#include "src/phys/phys_mem.h"
#include "src/sim/machine.h"
#include "src/sim/rng.h"

namespace {

class PmapTest : public ::testing::Test {
 protected:
  phys::Page* NewPage(sim::ObjOffset off = 0) {
    phys::Page* p = pm.AllocPage(phys::OwnerKind::kKernel, this, off, false);
    EXPECT_NE(nullptr, p);
    return p;
  }

  sim::Machine machine;
  phys::PhysMem pm{machine, 128};
  mmu::MmuContext ctx{pm};
};

TEST_F(PmapTest, EnterExtractRoundTrip) {
  mmu::Pmap pmap(ctx, /*is_kernel=*/true);
  phys::Page* p = NewPage();
  pmap.Enter(0x1000, p, sim::Prot::kReadWrite, /*wired=*/false);
  auto pte = pmap.Extract(0x1000);
  ASSERT_TRUE(pte.has_value());
  EXPECT_EQ(p->pfn, pte->pfn);
  EXPECT_EQ(sim::Prot::kReadWrite, pte->prot);
  EXPECT_FALSE(pte->wired);
  EXPECT_FALSE(pmap.Extract(0x2000).has_value());
  EXPECT_EQ(1u, pmap.resident_count());
}

TEST_F(PmapTest, ExtractTruncatesToPageBoundary) {
  mmu::Pmap pmap(ctx, true);
  phys::Page* p = NewPage();
  pmap.Enter(0x1000, p, sim::Prot::kRead, false);
  EXPECT_TRUE(pmap.Extract(0x1abc).has_value());
}

TEST_F(PmapTest, ReplaceMappingUpdatesPvEntries) {
  mmu::Pmap pmap(ctx, true);
  phys::Page* a = NewPage();
  phys::Page* b = NewPage();
  pmap.Enter(0x1000, a, sim::Prot::kRead, false);
  EXPECT_EQ(1u, ctx.MappingCount(a));
  pmap.Enter(0x1000, b, sim::Prot::kRead, false);
  EXPECT_EQ(0u, ctx.MappingCount(a));
  EXPECT_EQ(1u, ctx.MappingCount(b));
  EXPECT_EQ(1u, pmap.resident_count());
}

TEST_F(PmapTest, ReenterSamePageChangesProtInPlace) {
  mmu::Pmap pmap(ctx, true);
  phys::Page* p = NewPage();
  pmap.Enter(0x1000, p, sim::Prot::kRead, false);
  pmap.Enter(0x1000, p, sim::Prot::kReadWrite, false);
  EXPECT_EQ(sim::Prot::kReadWrite, pmap.Extract(0x1000)->prot);
  EXPECT_EQ(1u, ctx.MappingCount(p));
}

TEST_F(PmapTest, RemoveDropsTranslationAndPv) {
  mmu::Pmap pmap(ctx, true);
  phys::Page* p = NewPage();
  pmap.Enter(0x1000, p, sim::Prot::kRead, false);
  pmap.Remove(0x1000);
  EXPECT_FALSE(pmap.Extract(0x1000).has_value());
  EXPECT_EQ(0u, ctx.MappingCount(p));
}

TEST_F(PmapTest, RemoveRangeOnlyTouchesRange) {
  mmu::Pmap pmap(ctx, true);
  for (int i = 0; i < 8; ++i) {
    pmap.Enter(0x1000 + i * sim::kPageSize, NewPage(i), sim::Prot::kRead, false);
  }
  pmap.RemoveRange(0x3000, 0x5000);
  EXPECT_TRUE(pmap.Extract(0x1000).has_value());
  EXPECT_TRUE(pmap.Extract(0x2000).has_value());
  EXPECT_FALSE(pmap.Extract(0x3000).has_value());
  EXPECT_FALSE(pmap.Extract(0x4000).has_value());
  EXPECT_TRUE(pmap.Extract(0x5000).has_value());
  EXPECT_EQ(6u, pmap.resident_count());
}

TEST_F(PmapTest, PageProtectLowersEveryMapping) {
  mmu::Pmap p1(ctx, true);
  mmu::Pmap p2(ctx, true);
  phys::Page* p = NewPage();
  p1.Enter(0x1000, p, sim::Prot::kReadWrite, false);
  p2.Enter(0x8000, p, sim::Prot::kReadWrite, false);
  EXPECT_EQ(2u, ctx.MappingCount(p));
  ctx.PageProtect(p, sim::Prot::kReadExec);
  EXPECT_EQ(sim::Prot::kRead, p1.Extract(0x1000)->prot);  // RW ∧ RX = R
  EXPECT_EQ(sim::Prot::kRead, p2.Extract(0x8000)->prot);
}

TEST_F(PmapTest, PageProtectNoneRemovesEveryMapping) {
  mmu::Pmap p1(ctx, true);
  mmu::Pmap p2(ctx, true);
  phys::Page* p = NewPage();
  p1.Enter(0x1000, p, sim::Prot::kRead, false);
  p2.Enter(0x9000, p, sim::Prot::kRead, false);
  std::size_t n = ctx.PageProtect(p, sim::Prot::kNone);
  EXPECT_EQ(2u, n);
  EXPECT_FALSE(p1.Extract(0x1000).has_value());
  EXPECT_FALSE(p2.Extract(0x9000).has_value());
  EXPECT_EQ(0u, ctx.MappingCount(p));
}

TEST_F(PmapTest, WiringCountsTracked) {
  mmu::Pmap pmap(ctx, true);
  phys::Page* a = NewPage();
  phys::Page* b = NewPage();
  pmap.Enter(0x1000, a, sim::Prot::kRead, /*wired=*/true);
  pmap.Enter(0x2000, b, sim::Prot::kRead, /*wired=*/false);
  EXPECT_EQ(1u, pmap.wired_count());
  pmap.ChangeWiring(0x2000, true);
  EXPECT_EQ(2u, pmap.wired_count());
  pmap.ChangeWiring(0x1000, false);
  EXPECT_EQ(1u, pmap.wired_count());
  pmap.Remove(0x2000);
  EXPECT_EQ(0u, pmap.wired_count());
}

TEST_F(PmapTest, IntersectProtRangeKeepsWiredMappingsAlive) {
  mmu::Pmap pmap(ctx, true);
  phys::Page* a = NewPage();
  phys::Page* b = NewPage();
  pmap.Enter(0x1000, a, sim::Prot::kWrite, /*wired=*/true);
  pmap.Enter(0x2000, b, sim::Prot::kWrite, /*wired=*/false);
  // Intersection with kRead is empty for both; the wired one must survive.
  pmap.IntersectProtRange(0x1000, 0x3000, sim::Prot::kRead);
  ASSERT_TRUE(pmap.Extract(0x1000).has_value());
  EXPECT_EQ(sim::Prot::kNone, pmap.Extract(0x1000)->prot);
  EXPECT_FALSE(pmap.Extract(0x2000).has_value());
}

TEST_F(PmapTest, UserPmapAllocatesPtPagesPerRegion) {
  mmu::Pmap pmap(ctx, /*is_kernel=*/false);
  std::size_t free_before = pm.free_pages();
  phys::Page* p = NewPage();
  pmap.Enter(0x1000, p, sim::Prot::kRead, false);
  EXPECT_EQ(1u, pmap.ptpage_count());
  // Same 4 MB region: no new PT page.
  phys::Page* q = NewPage();
  pmap.Enter(0x2000, q, sim::Prot::kRead, false);
  EXPECT_EQ(1u, pmap.ptpage_count());
  // Different region.
  phys::Page* r = NewPage();
  pmap.Enter(0x0100'0000, r, sim::Prot::kRead, false);
  EXPECT_EQ(2u, pmap.ptpage_count());
  // 3 user pages + 2 PT pages consumed.
  EXPECT_EQ(free_before - 5, pm.free_pages());
}

TEST_F(PmapTest, KernelPmapNeedsNoPtPages) {
  mmu::Pmap pmap(ctx, /*is_kernel=*/true);
  pmap.Enter(0xC000'0000, NewPage(), sim::Prot::kReadWrite, true);
  EXPECT_EQ(0u, pmap.ptpage_count());
}

TEST_F(PmapTest, PtPageHooksFire) {
  int allocs = 0;
  int frees = 0;
  {
    mmu::Pmap pmap(
        ctx, false, [&](phys::Page*) { ++allocs; }, [&](phys::Page*) { ++frees; });
    pmap.Enter(0x1000, NewPage(), sim::Prot::kRead, false);
    pmap.Enter(0x0100'0000, NewPage(), sim::Prot::kRead, false);
    EXPECT_EQ(2, allocs);
    EXPECT_EQ(0, frees);
  }
  EXPECT_EQ(2, frees);
}

TEST_F(PmapTest, DestructorReleasesEverything) {
  std::size_t free_before = pm.free_pages();
  phys::Page* p = NewPage();
  {
    mmu::Pmap pmap(ctx, false);
    pmap.Enter(0x1000, p, sim::Prot::kRead, false);
    EXPECT_EQ(1u, ctx.MappingCount(p));
  }
  EXPECT_EQ(0u, ctx.MappingCount(p));
  // Only the user page itself remains allocated; PT page returned.
  EXPECT_EQ(free_before - 1, pm.free_pages());
  pm.FreePage(p);
}

TEST_F(PmapTest, PtPageFreeHookFiresInAscendingVa) {
  std::vector<sim::ObjOffset> freed;  // a PT page's offset is its directory index
  {
    mmu::Pmap pmap(ctx, false, nullptr, [&](phys::Page* pt) { freed.push_back(pt->offset); });
    // Top down, so the tables are created in the reverse of va order.
    for (sim::Vaddr va :
         {0xAFFF'F000ull, 0x0080'0000ull, 0x0040'0000ull, 0x003F'F000ull, 0x1000ull}) {
      pmap.Enter(va, NewPage(), sim::Prot::kRead, false);
    }
    EXPECT_EQ(4u, pmap.ptpage_count());  // 0x3FF000 and 0x1000 share the first 4 MB
  }
  EXPECT_EQ((std::vector<sim::ObjOffset>{0, 1, 2, 703}), freed);
}

TEST_F(PmapTest, VaPastFourGigabytesReadsUnmapped) {
  constexpr sim::Vaddr k4G = 0x1'0000'0000;
  for (bool is_kernel : {false, true}) {
    mmu::Pmap pmap(ctx, is_kernel);
    phys::Page* low = NewPage();
    phys::Page* top = NewPage();
    pmap.Enter(0x1000, low, sim::Prot::kReadWrite, false);
    pmap.Enter(k4G - sim::kPageSize, top, sim::Prot::kReadWrite, false);
    // Neither aliases a low slot nor runs off the directory.
    EXPECT_FALSE(pmap.Extract(k4G).has_value());
    EXPECT_FALSE(pmap.Extract(k4G + 0x1000).has_value());
    EXPECT_FALSE(pmap.Extract(k4G + (1ull << 32) - sim::kPageSize).has_value());
    pmap.Remove(k4G + 0x1000);
    pmap.ChangeWiring(k4G + 0x1000, true);
    pmap.IntersectProtRange(k4G, k4G + 0x10000, sim::Prot::kNone);
    pmap.RemoveRange(k4G, ~sim::Vaddr{0});
    EXPECT_EQ(2u, pmap.resident_count());
    EXPECT_EQ(0u, pmap.wired_count());
    // A range that straddles the edge reaches the last page below it.
    pmap.RemoveRange(k4G - sim::kPageSize, k4G + 0x1000);
    EXPECT_FALSE(pmap.Extract(k4G - sim::kPageSize).has_value());
    EXPECT_TRUE(pmap.Extract(0x1000).has_value());
    EXPECT_EQ(0u, ctx.MappingCount(top));
    EXPECT_EQ(1u, ctx.MappingCount(low));
  }
}

// Random operation sequences on two user pmaps and the kernel pmap, checked
// after every step against a std::map per pmap and a model of the
// single-entry PTE cache behind Stats::pte_cache_hits. The addresses straddle
// 4 MB table boundaries, reach the top of the user and kernel ranges, and
// include vas past 4 GB that alias mapped low ones.
TEST_F(PmapTest, MatchesReferenceModelAcrossTableBoundaries) {
  struct Ref {
    mmu::Pmap* pmap;
    std::vector<sim::Vaddr> vas;  // what Enter draws from
    std::map<sim::Vaddr, mmu::Pte> ptes;
    std::set<std::uint64_t> regions;  // va >> 22 of each PT page taken
    bool cache_valid = false;
    sim::Vaddr cache_va = 0;
  };
  // The last entries are the top pages of the user range (below kUserMax)
  // and of the kernel range (below kKernMax, which is 4 GB).
  const std::vector<sim::Vaddr> user_vas = {0x1000,    0x2000,     0x3F'E000,   0x3F'F000,
                                            0x40'0000, 0x40'1000,  0x7F'F000,   0x80'0000,
                                            0xAFFF'E000, 0xAFFF'F000};
  const std::vector<sim::Vaddr> kernel_vas = {0x1000,      0xC000'0000, 0xC000'1000,
                                              0xC03F'F000, 0xC040'0000, 0xFFFF'E000,
                                              0xFFFF'F000};
  const std::vector<sim::Vaddr> past_4g = {0x1'0000'0000, 0x1'0000'1000, 0x1'0040'0000,
                                           0x1'AFFF'F000, 0x1'FFFF'F000};
  const sim::Prot prots[] = {sim::Prot::kNone,      sim::Prot::kRead,     sim::Prot::kWrite,
                             sim::Prot::kReadWrite, sim::Prot::kReadExec, sim::Prot::kAll};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Rng rng(seed);
    const std::size_t free_before = pm.free_pages();
    std::vector<phys::Page*> frames;
    for (int i = 0; i < 12; ++i) {
      frames.push_back(NewPage(i));
    }
    {
      mmu::Pmap user_a(ctx, false);
      mmu::Pmap user_b(ctx, false);
      mmu::Pmap kernel(ctx, true);
      std::vector<Ref> refs = {
          {&user_a, user_vas, {}, {}}, {&user_b, user_vas, {}, {}}, {&kernel, kernel_vas, {}, {}}};
      std::uint64_t hits = machine.stats().pte_cache_hits;
      auto pick = [&](const std::vector<sim::Vaddr>& v) { return v[rng.Below(v.size())]; };
      // Any address an op may name: the pmap's own, or one past 4 GB.
      auto any_va = [&](const Ref& r) { return rng.Below(4) == 0 ? pick(past_4g) : pick(r.vas); };
      auto note = [&](Ref& r, sim::Vaddr va) {
        if (r.cache_valid && r.cache_va == va) {
          ++hits;
        }
        r.cache_valid = true;
        r.cache_va = va;
      };
      auto drop = [](Ref& r, sim::Vaddr va) {
        if (r.cache_valid && r.cache_va == va) {
          r.cache_valid = false;
        }
        r.ptes.erase(va);
      };
      // The pages a range op covers: PageTrunc(start) up to, not including, end.
      auto in_range = [](const Ref& r, sim::Vaddr start, sim::Vaddr end) {
        std::vector<sim::Vaddr> out;
        for (auto it = r.ptes.lower_bound(sim::PageTrunc(start)); it != r.ptes.end() &&
                                                                  it->first < end;
             ++it) {
          out.push_back(it->first);
        }
        return out;
      };
      for (int step = 0; step < 1500; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        Ref& r = refs[rng.Below(refs.size())];
        switch (rng.Below(7)) {
          case 0:
          case 1: {  // Enter
            const sim::Vaddr va = pick(r.vas);
            phys::Page* page = frames[rng.Below(frames.size())];
            const sim::Prot prot = prots[1 + rng.Below(5)];
            const bool wired = rng.Below(4) == 0;
            r.pmap->Enter(va, page, prot, wired);
            if (!r.pmap->is_kernel()) {
              r.regions.insert(va >> 22);
            }
            auto it = r.ptes.find(va);
            if (it != r.ptes.end()) {
              note(r, va);
              if (it->second.pfn != page->pfn) {
                drop(r, va);
              }
            }
            r.ptes[va] = mmu::Pte{page->pfn, prot, wired};
            break;
          }
          case 2: {  // Remove
            const sim::Vaddr va = any_va(r) + rng.Below(sim::kPageSize);
            r.pmap->Remove(va);
            drop(r, sim::PageTrunc(va));
            break;
          }
          case 3:
          case 4: {  // RemoveRange or IntersectProtRange
            sim::Vaddr start = any_va(r);
            sim::Vaddr end = any_va(r);
            if (end < start) {
              std::swap(start, end);
            }
            start += rng.Below(2) == 0 ? 0 : 0x800;
            end += rng.Below(3) * 0x800;  // aligned, mid-page, or one page on
            if (rng.Below(2) == 0) {
              r.pmap->RemoveRange(start, end);
              for (sim::Vaddr va : in_range(r, start, end)) {
                drop(r, va);
              }
            } else {
              const sim::Prot prot = prots[rng.Below(6)];
              r.pmap->IntersectProtRange(start, end, prot);
              for (sim::Vaddr va : in_range(r, start, end)) {
                note(r, va);
                mmu::Pte& pte = r.ptes[va];
                pte.prot = pte.prot & prot;
                if (pte.prot == sim::Prot::kNone && !pte.wired) {
                  drop(r, va);
                }
              }
            }
            break;
          }
          case 5: {  // ChangeWiring
            const sim::Vaddr va = any_va(r);
            const bool wired = rng.Below(2) == 0;
            r.pmap->ChangeWiring(va, wired);
            if (auto it = r.ptes.find(va); it != r.ptes.end()) {
              note(r, va);
              it->second.wired = wired;
            }
            break;
          }
          case 6: {  // PageProtect, through every pmap at once
            phys::Page* page = frames[rng.Below(frames.size())];
            const sim::Prot prot = prots[rng.Below(5)];
            ctx.PageProtect(page, prot);
            for (Ref& each : refs) {
              std::vector<sim::Vaddr> mapped;
              for (auto& [va, pte] : each.ptes) {
                if (pte.pfn == page->pfn) {
                  mapped.push_back(va);
                  pte.prot = pte.prot & prot;
                }
              }
              if (prot == sim::Prot::kNone) {
                for (sim::Vaddr va : mapped) {
                  drop(each, va);
                }
              }
            }
            break;
          }
        }
        // Check every pmap, reading its addresses in a random order so the
        // cache enters the next step in varied states.
        for (Ref& each : refs) {
          std::vector<sim::Vaddr> reads = each.vas;
          reads.insert(reads.end(), past_4g.begin(), past_4g.end());
          for (std::size_t i = reads.size(); i > 1; --i) {
            std::swap(reads[i - 1], reads[rng.Below(i)]);
          }
          for (sim::Vaddr va : reads) {
            const auto got = each.pmap->Extract(va);
            const auto want = each.ptes.find(va);
            ASSERT_EQ(want != each.ptes.end(), got.has_value()) << "va " << std::hex << va;
            if (got.has_value()) {
              note(each, va);
              EXPECT_EQ(want->second.pfn, got->pfn);
              EXPECT_EQ(want->second.prot, got->prot);
              EXPECT_EQ(want->second.wired, got->wired);
            }
          }
          EXPECT_EQ(each.ptes.size(), each.pmap->resident_count());
          EXPECT_EQ(static_cast<std::size_t>(
                        std::count_if(each.ptes.begin(), each.ptes.end(),
                                      [](const auto& kv) { return kv.second.wired; })),
                    each.pmap->wired_count());
          EXPECT_EQ(each.regions.size(), each.pmap->ptpage_count());
        }
        for (phys::Page* page : frames) {
          std::size_t mappings = 0;
          for (const Ref& each : refs) {
            for (const auto& [va, pte] : each.ptes) {
              mappings += pte.pfn == page->pfn ? 1 : 0;
            }
          }
          ASSERT_EQ(mappings, ctx.MappingCount(page));
        }
        ASSERT_EQ(hits, machine.stats().pte_cache_hits);
      }
    }
    // Teardown returned every page-table page and dropped every mapping.
    for (phys::Page* page : frames) {
      EXPECT_EQ(0u, ctx.MappingCount(page));
      pm.FreePage(page);
    }
    EXPECT_EQ(free_before, pm.free_pages());
  }
}

}  // namespace
