#include "src/mmu/pmap.h"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>

#include "src/sim/annotations.h"
#include "src/sim/assert.h"

namespace mmu {

namespace {
constexpr std::uint64_t kPtShift = 22;  // i386: one page-table page maps 4 MB
static_assert(PtTable::kSlots << sim::kPageShift == std::uint64_t{1} << kPtShift);
// The directory's reach: a va at or past it has no slot and reads as unmapped.
constexpr sim::Vaddr kVaLimit = sim::Vaddr{1} << 32;

std::size_t SlotIndex(sim::Vaddr va) { return (va >> sim::kPageShift) & (PtTable::kSlots - 1); }
}  // namespace

MmuContext::MmuContext(phys::PhysMem& pm)
    : pm_(pm),
      pmap_lock_(pm.machine(), "mmu.pmap", sim::LockRank::kPmap),
      pv_lock_(pm.machine(), "mmu.pv", sim::LockRank::kPv),
      pv_(pm.total_pages(), nullptr) {
  // Machine-check response (DESIGN.md §13): the moment a live frame is
  // poisoned, strip every mapping of it through the pv chain so the next
  // touch faults and the owning VM discovers the poison. Wired and kernel
  // frames keep their mappings — wiring is a no-unmap contract; consuming
  // those panics at the access site instead.
  poison_hook_token_ = pm_.AddPoisonHook([this](phys::Page* p) {
    if (p->wire_count == 0 && p->owner_kind != phys::OwnerKind::kKernel) {
      PageProtect(p, sim::Prot::kNone);
    }
  });
  audit_token_ =
      machine().auditor().Register("mmu.pv", [this](sim::Auditor& a) { AuditPv(a); });
}

MmuContext::~MmuContext() {
  machine().auditor().Unregister(audit_token_);
  pm_.RemovePoisonHook(poison_hook_token_);
}

void MmuContext::AuditPv(sim::Auditor& auditor) const {
  std::unordered_set<const Pmap*> live(pmaps_.begin(), pmaps_.end());
  std::size_t pv_total = 0;
  for (sim::Pfn pfn = 0; pfn < pv_.size(); ++pfn) {
    for (const PvEntry* e = pv_[pfn]; e != nullptr; e = e->next) {
      ++pv_total;
      if (!live.contains(e->pmap)) {
        auditor.Fail("pv entry references a dead pmap: pfn " + std::to_string(pfn));
        continue;
      }
      const Pte* pte = e->pmap->Slot(e->va);
      if (pte == nullptr) {
        auditor.Fail("pv entry without a pte: pfn " + std::to_string(pfn) + " va " +
                     std::to_string(e->va));
      } else if (pte->pfn != pfn) {
        auditor.Fail("pv entry and pte disagree: pfn " + std::to_string(pfn) + " va " +
                     std::to_string(e->va) + " pte.pfn " + std::to_string(pte->pfn));
      }
    }
    const phys::Page* page = pm_.PageAt(pfn);
    if (page->poisoned && pv_[pfn] != nullptr && page->wire_count == 0 &&
        page->owner_kind != phys::OwnerKind::kKernel) {
      auditor.Fail("poisoned frame still mapped: pfn " + std::to_string(pfn));
    }
  }
  std::size_t pte_total = 0;
  for (Pmap* pmap : pmaps_) {
    std::size_t resident = 0;
    std::size_t wired = 0;
    pmap->ForEachPte(0, kVaLimit, [&](PtTable&, const Pte& pte, sim::Vaddr va) {
      ++resident;
      if (pte.wired) {
        ++wired;
      }
      if (pte.pfn >= pv_.size()) {
        auditor.Fail("pte maps an out-of-range pfn: va " + std::to_string(va));
      } else if (!PvContains(pte.pfn, pmap, va)) {
        auditor.Fail("pte without a pv entry: va " + std::to_string(va) + " pfn " +
                     std::to_string(pte.pfn));
      }
    });
    if (resident != pmap->resident_count_) {
      auditor.Fail("resident recount " + std::to_string(resident) + " != resident_count " +
                   std::to_string(pmap->resident_count_));
    }
    if (wired != pmap->wired_count_) {
      auditor.Fail("wired recount " + std::to_string(wired) + " != wired_count " +
                   std::to_string(pmap->wired_count_));
    }
    pte_total += resident;
  }
  if (pv_total != pte_total) {
    auditor.Fail("pv entries " + std::to_string(pv_total) + " != resident ptes " +
                 std::to_string(pte_total));
  }
}

MmuContext::PvEntry** MmuContext::FindPvLink(sim::Pfn pfn, const Pmap* pmap, sim::Vaddr va) {
  PvEntry** link = &pv_[pfn];
  while (*link != nullptr && !((*link)->pmap == pmap && (*link)->va == va)) {
    link = &(*link)->next;
  }
  return link;
}

bool MmuContext::PvContains(sim::Pfn pfn, const Pmap* pmap, sim::Vaddr va) const {
  for (const PvEntry* e = pv_[pfn]; e != nullptr; e = e->next) {
    if (e->pmap == pmap && e->va == va) {
      return true;
    }
  }
  return false;
}

void MmuContext::PvAdd(sim::Pfn pfn, Pmap* pmap, sim::Vaddr va) {
  sim::LockGuard g(pv_lock_);
  pv_[pfn] = machine().pools().New<PvEntry>(PvEntry{pmap, va, pv_[pfn]});
}

void MmuContext::PvRemove(sim::Pfn pfn, Pmap* pmap, sim::Vaddr va) {
  sim::LockGuard g(pv_lock_);
  PvEntry** link = FindPvLink(pfn, pmap, va);
  SIM_ASSERT_MSG(*link != nullptr, "pv entry missing on remove");
  PvEntry* e = *link;
  *link = e->next;
  machine().pools().Delete(e);
}

std::size_t MmuContext::PageProtect(phys::Page* page, sim::Prot prot) {
  sim::LockGuard g(pmap_lock_);
  std::size_t n = MappingCount(page);
  machine().Charge(sim::CostCat::kPmap, machine().cost().pmap_page_protect_ns * (n == 0 ? 1 : n));
  if (prot == sim::Prot::kNone) {
    // Remove all mappings, erasing while we iterate: RemoveLocked unlinks
    // exactly the head entry (its (pmap, va) is the chain's first match),
    // so re-reading the head each round visits every mapping once. No copy
    // of the chain is taken.
    while (PvEntry* e = pv_[page->pfn]) {
      e->pmap->RemoveLocked(e->va);
    }
  } else {
    for (PvEntry* e = pv_[page->pfn]; e != nullptr; e = e->next) {
      Pte* pte = e->pmap->Slot(e->va);
      SIM_ASSERT(pte != nullptr);
      pte->prot = pte->prot & prot;
    }
  }
  return n;
}

Pmap::Pmap(MmuContext& ctx, bool is_kernel, std::function<void(phys::Page*)> on_ptpage_alloc,
           std::function<void(phys::Page*)> on_ptpage_free)
    : ctx_(ctx),
      is_kernel_(is_kernel),
      on_ptpage_alloc_(std::move(on_ptpage_alloc)),
      on_ptpage_free_(std::move(on_ptpage_free)) {
  ctx_.pmaps_.push_back(this);
}

Pmap::~Pmap() {
  RemoveRange(0, kVaLimit);
  // Tables, and with them the page-table pages, go back in ascending va:
  // the order pages return to the free list is observable (the allocator
  // reuses them LIFO).
  for (PtTable*& table : dir_) {
    if (table == nullptr) {
      continue;
    }
    if (phys::Page* page = table->ptpage) {
      if (on_ptpage_free_) {
        on_ptpage_free_(page);
      }
      ctx_.phys().Unwire(page);
      ctx_.phys().Dequeue(page);
      ctx_.phys().FreePage(page);
    }
    ctx_.machine().pools().Delete(table);
    table = nullptr;
  }
  auto it = std::find(ctx_.pmaps_.begin(), ctx_.pmaps_.end(), this);
  SIM_ASSERT(it != ctx_.pmaps_.end());
  ctx_.pmaps_.erase(it);
}

Pte* Pmap::Slot(sim::Vaddr va_page) const {
  if (va_page >= kVaLimit) {
    return nullptr;
  }
  PtTable* table = dir_[va_page >> kPtShift];
  if (table == nullptr) {
    return nullptr;
  }
  Pte& pte = table->ptes[SlotIndex(va_page)];
  return pte.pfn == sim::kInvalidPfn ? nullptr : &pte;
}

template <typename Fn>
void Pmap::ForEachPte(sim::Vaddr start, sim::Vaddr end, Fn&& fn) {
  // The pages a loop `for (va = PageTrunc(start); va < end; va += page)`
  // visits, clipped to the directory's reach.
  sim::Vaddr va = sim::PageTrunc(start);
  end = sim::PageRound(std::min(end, kVaLimit));
  while (va < end) {
    const std::size_t dir_index = va >> kPtShift;
    const sim::Vaddr table_end = std::min((sim::Vaddr{dir_index} + 1) << kPtShift, end);
    PtTable* table = dir_[dir_index];
    for (; table != nullptr && table->live != 0 && va < table_end; va += sim::kPageSize) {
      Pte& pte = table->ptes[SlotIndex(va)];
      if (pte.pfn != sim::kInvalidPfn) {
        fn(*table, pte, va);
      }
    }
    va = table_end;
  }
}

void Pmap::NoteLookup(sim::Vaddr va_page) const {
  if (cache_valid_ && cache_va_ == va_page) {
    ++ctx_.machine().stats().pte_cache_hits;
  }
  cache_va_ = va_page;
  cache_valid_ = true;
}

Pte* Pmap::LookupPte(sim::Vaddr va_page) const {
  Pte* pte = Slot(va_page);
  if (pte != nullptr) {
    NoteLookup(va_page);
  }
  return pte;
}

PtTable& Pmap::EnsureTable(sim::Vaddr va) {
  SIM_ASSERT_MSG(va < kVaLimit, "va beyond the page directory");
  const std::size_t dir_index = va >> kPtShift;
  if (dir_[dir_index] != nullptr) {
    return *dir_[dir_index];
  }
  phys::Page* pt = nullptr;
  if (!is_kernel_) {
    // Page-table pages are allocated at emergency priority: a PT page is at
    // most a few frames per address space and the fault path cannot back
    // out of needing one, so it may dip into the pageout reserve.
    pt = ctx_.phys().AllocPage(phys::OwnerKind::kKernel, this, dir_index, /*zero=*/true,
                               phys::AllocPri::kEmergency);
    SIM_POOL_FATAL_OK("emergency allocation below the reserve; only fails if RAM is truly empty");
    SIM_ASSERT_MSG(pt != nullptr, "out of memory allocating page-table page");
    ctx_.phys().Wire(pt);
    ctx_.machine().Charge(sim::CostCat::kPmap, ctx_.machine().cost().ptpage_alloc_ns);
    ++ptpage_count_;
  }
  PtTable* table = ctx_.machine().pools().New<PtTable>();
  table->ptpage = pt;
  dir_[dir_index] = table;
  if (pt != nullptr && on_ptpage_alloc_) {
    on_ptpage_alloc_(pt);
  }
  return *table;
}

void Pmap::Enter(sim::Vaddr va, phys::Page* page, sim::Prot prot, bool wired) {
  SIM_ASSERT_MSG(!page->poisoned, "mapping a poisoned frame");
  va = sim::PageTrunc(va);
  // PT-page allocation happens outside the pmap lock: it reaches the page
  // queues and the BSD kmap hook, both of which rank below kPmap.
  PtTable& table = EnsureTable(va);
  sim::LockGuard g(ctx_.pmap_lock_);
  ctx_.machine().Charge(sim::CostCat::kPmap, ctx_.machine().cost().pmap_enter_ns);
  Pte& pte = table.ptes[SlotIndex(va)];
  if (pte.pfn != sim::kInvalidPfn) {
    NoteLookup(va);
    // Replacing an existing mapping.
    if (pte.pfn == page->pfn) {
      if (pte.wired && !wired) {
        --wired_count_;
      } else if (!pte.wired && wired) {
        ++wired_count_;
      }
      pte.prot = prot;
      pte.wired = wired;
      return;
    }
    RemovePte(table, pte, va);
  }
  pte = Pte{page->pfn, prot, wired};
  ++table.live;
  ++resident_count_;
  if (wired) {
    ++wired_count_;
  }
  ctx_.PvAdd(page->pfn, this, va);
}

void Pmap::RemovePte(PtTable& table, Pte& pte, sim::Vaddr va_page) {
  if (pte.wired) {
    --wired_count_;
  }
  ctx_.PvRemove(pte.pfn, this, va_page);
  if (cache_valid_ && cache_va_ == va_page) {
    cache_valid_ = false;
  }
  pte = Pte{};
  --table.live;
  --resident_count_;
}

void Pmap::RemoveLocked(sim::Vaddr va_page) {
  if (Pte* pte = Slot(va_page); pte != nullptr) {
    RemovePte(*dir_[va_page >> kPtShift], *pte, va_page);
  }
}

void Pmap::Remove(sim::Vaddr va) {
  sim::LockGuard g(ctx_.pmap_lock_);
  ctx_.machine().Charge(sim::CostCat::kPmap, ctx_.machine().cost().pmap_remove_ns);
  RemoveLocked(sim::PageTrunc(va));
}

void Pmap::RemoveRange(sim::Vaddr start, sim::Vaddr end) {
  sim::LockGuard g(ctx_.pmap_lock_);
  ForEachPte(start, end, [this](PtTable& table, Pte& pte, sim::Vaddr va) {
    ctx_.machine().Charge(sim::CostCat::kPmap, ctx_.machine().cost().pmap_remove_ns);
    RemovePte(table, pte, va);
  });
}

void Pmap::IntersectProtRange(sim::Vaddr start, sim::Vaddr end, sim::Prot prot) {
  sim::LockGuard g(ctx_.pmap_lock_);
  ForEachPte(start, end, [this, prot](PtTable& table, Pte& pte, sim::Vaddr va) {
    NoteLookup(va);
    ctx_.machine().Charge(sim::CostCat::kPmap, ctx_.machine().cost().pmap_protect_ns);
    sim::Prot np = pte.prot & prot;
    if (np == sim::Prot::kNone && !pte.wired) {
      RemovePte(table, pte, va);
    } else {
      pte.prot = np;
    }
  });
}

void Pmap::ChangeWiring(sim::Vaddr va, bool wired) {
  sim::LockGuard g(ctx_.pmap_lock_);
  Pte* pte = LookupPte(sim::PageTrunc(va));
  if (pte == nullptr) {
    return;
  }
  if (pte->wired != wired) {
    pte->wired = wired;
    wired_count_ += wired ? 1 : -1;
  }
}

std::optional<Pte> Pmap::Extract(sim::Vaddr va) const {
  sim::LockGuard g(ctx_.pmap_lock_);  // ctx_ is a non-const reference
  ctx_.machine().Charge(sim::CostCat::kPmap, ctx_.machine().cost().pmap_extract_ns);
  Pte* pte = LookupPte(sim::PageTrunc(va));
  if (pte == nullptr) {
    return std::nullopt;
  }
  return *pte;
}

}  // namespace mmu
