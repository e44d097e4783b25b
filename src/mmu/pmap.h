// The machine-dependent pmap layer (§2 of the paper). Both BSD VM and UVM
// sit on top of this identical interface, exactly as the paper's systems
// share pmap modules. The simulated MMU keeps per-address-space page tables
// (va -> pfn + protection + wired bit) and a pv-entry reverse map so that
// operations by physical page (pmap_page_protect, used for COW fork and
// pageout) find every mapping of a frame.
//
// i386 modelling: each 4 MB region of mapped virtual address space requires
// one wired page-table page. Under UVM, the wired state of page-table pages
// lives only inside the pmap; under BSD VM, the machine-dependent code also
// enters each page-table page into the kernel map, costing a kernel map
// entry (§3.2). The hook `on_ptpage_alloc` lets the BSD layer model that.
//
// The host layout is the i386 one too: a 1024-entry page directory indexed
// by va >> 22, each present entry pointing at a table of 1024 PTEs (one per
// 4 KB page of its 4 MB region) from the machine's slab pool, which carves
// one table per refill. A user pmap's table comes and goes with its
// simulated page-table page; the kernel pmap, which consumes none, creates
// its tables on first use. The directory covers 4 GB: a va at or past that
// reads as unmapped. Every walk (range removal, protection, teardown,
// audit) is in ascending va by construction.
#ifndef SRC_MMU_PMAP_H_
#define SRC_MMU_PMAP_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/phys/phys_mem.h"
#include "src/sim/lock.h"
#include "src/sim/types.h"

namespace mmu {

struct Pte {
  sim::Pfn pfn = sim::kInvalidPfn;
  sim::Prot prot = sim::Prot::kNone;
  bool wired = false;
};

// One page-table page's worth of PTEs: slot i maps the i-th 4 KB page of a
// 4 MB region, and an empty slot holds sim::kInvalidPfn. `live` counts the
// valid slots so walks can skip an emptied table. `ptpage` is the simulated
// page-table page it stands for (null in the kernel pmap).
struct PtTable {
  static constexpr std::size_t kSlots = 1024;
  std::array<Pte, kSlots> ptes;
  std::uint32_t live = 0;
  phys::Page* ptpage = nullptr;
};

class Pmap;

// Shared MMU state: the pv table mapping each frame to the set of virtual
// mappings of it. One MmuContext exists per Machine.
class MmuContext {
 public:
  // Registers the machine-check poison hook with PhysMem (unmap every
  // mapping of a freshly poisoned unwired frame, so the next touch faults
  // and the owning VM runs containment) and the "mmu.pv" auditor check.
  explicit MmuContext(phys::PhysMem& pm);
  ~MmuContext();

  MmuContext(const MmuContext&) = delete;
  MmuContext& operator=(const MmuContext&) = delete;

  phys::PhysMem& phys() { return pm_; }
  sim::Machine& machine() { return pm_.machine(); }

  // Lower the protection of every mapping of `page` to `prot`; kNone removes
  // the mappings entirely. Returns the number of mappings affected.
  std::size_t PageProtect(phys::Page* page, sim::Prot prot);

  // Number of pmaps currently mapping this frame.
  std::size_t MappingCount(const phys::Page* page) const {
    std::size_t n = 0;
    for (const PvEntry* e = pv_[page->pfn]; e != nullptr; e = e->next) {
      ++n;
    }
    return n;
  }

 private:
  friend class Pmap;
  // pv entries are pooled singly-linked chain nodes: insertion
  // prepends (LIFO — deterministic, and the freed node is the next one
  // reused), removal unlinks in place. No vector copies, no O(n) erase
  // shuffles on long chains.
  struct PvEntry {
    Pmap* pmap;
    sim::Vaddr va;
    PvEntry* next;
  };

  void PvAdd(sim::Pfn pfn, Pmap* pmap, sim::Vaddr va);
  void PvRemove(sim::Pfn pfn, Pmap* pmap, sim::Vaddr va);
  // The one chain-walk helper everything shares: the link slot (head
  // pointer or some entry's `next`) whose target matches (pmap, va), or the
  // terminating null slot if absent. Removal writes through the slot.
  PvEntry** FindPvLink(sim::Pfn pfn, const Pmap* pmap, sim::Vaddr va);
  bool PvContains(sim::Pfn pfn, const Pmap* pmap, sim::Vaddr va) const;

  // Registered with sim::Auditor: every pv entry has a matching PTE and
  // vice versa, resident and wired counts recount, and no unwired poisoned
  // frame is still mapped anywhere.
  void AuditPv(sim::Auditor& auditor) const;

  phys::PhysMem& pm_;
  // Class-level locks shared by every pmap (the real i386 pmap serialized
  // on one kernel lock too). Both zero-cost: pmap operation costs already
  // subsume the round-trips. The pmap lock is taken *after* EnsureTable —
  // PT-page allocation reaches down to the page queues (lower rank) and the
  // BSD kmap-mirroring hook (map rank), both illegal under it.
  sim::SimLock pmap_lock_;
  sim::SimLock pv_lock_;  // leaf guarding the pv chains
  std::vector<PvEntry*> pv_;  // per-pfn chain heads
  std::vector<Pmap*> pmaps_;  // live pmaps, in creation order
  int audit_token_ = 0;
  int poison_hook_token_ = 0;
};

class Pmap {
 public:
  // `is_kernel`: the kernel pmap does not consume page-table pages (its page
  // tables are part of the statically wired kernel image).
  // `on_ptpage_alloc` / `on_ptpage_free`: invoked as page-table pages come
  // and go (BSD VM uses these to mirror PT pages into the kernel map).
  Pmap(MmuContext& ctx, bool is_kernel,
       std::function<void(phys::Page*)> on_ptpage_alloc = nullptr,
       std::function<void(phys::Page*)> on_ptpage_free = nullptr);
  ~Pmap();

  Pmap(const Pmap&) = delete;
  Pmap& operator=(const Pmap&) = delete;

  // Establish (or replace) a mapping of `page` at `va`.
  void Enter(sim::Vaddr va, phys::Page* page, sim::Prot prot, bool wired);

  // Remove any mapping at `va`.
  void Remove(sim::Vaddr va);
  // Remove every mapping in [start, end).
  void RemoveRange(sim::Vaddr start, sim::Vaddr end);

  // Lower existing mappings in [start, end) to the intersection of their
  // current protection and `prot`. A mapping whose intersection is empty is
  // removed unless it is wired (wired mappings are kept with no access so
  // the wiring bookkeeping survives; the next access faults).
  void IntersectProtRange(sim::Vaddr start, sim::Vaddr end, sim::Prot prot);

  // Change only the wired attribute of an existing mapping.
  void ChangeWiring(sim::Vaddr va, bool wired);

  // Query the translation for `va`.
  std::optional<Pte> Extract(sim::Vaddr va) const;

  std::size_t resident_count() const { return resident_count_; }
  std::size_t wired_count() const { return wired_count_; }
  std::size_t ptpage_count() const { return ptpage_count_; }

  bool is_kernel() const { return is_kernel_; }

 private:
  friend class MmuContext;

  // Directory slots: 1024 of 4 MB each, the whole 32-bit address space.
  static constexpr std::size_t kDirSlots = 1024;

  // The table covering `va`, creating it (and, in a user pmap, its wired
  // page-table page) on first use.
  PtTable& EnsureTable(sim::Vaddr va);
  // The valid PTE at a page-aligned va, or null. No cache bookkeeping.
  Pte* Slot(sim::Vaddr va_page) const;
  void RemoveLocked(sim::Vaddr va_page);
  // Drop the valid PTE `pte`, which maps `va_page` from `table`.
  void RemovePte(PtTable& table, Pte& pte, sim::Vaddr va_page);
  // Visit every valid PTE with a va in [start, end) in ascending va, as
  // fn(table, pte, va). `fn` may remove the PTE it is given.
  template <typename Fn>
  void ForEachPte(sim::Vaddr start, sim::Vaddr end, Fn&& fn);

  // `Slot` plus the single-entry translation cache's bookkeeping: a
  // successful lookup of the page the previous one found counts a
  // `pte_cache_hits`. The cache models a host-side L1 "TLB"; it changes no
  // charge, only that counter, which reports and fingerprints print.
  Pte* LookupPte(sim::Vaddr va_page) const;
  void NoteLookup(sim::Vaddr va_page) const;

  MmuContext& ctx_;
  bool is_kernel_;
  std::function<void(phys::Page*)> on_ptpage_alloc_;
  std::function<void(phys::Page*)> on_ptpage_free_;
  std::array<PtTable*, kDirSlots> dir_{};  // indexed by va >> 22
  std::size_t resident_count_ = 0;
  std::size_t wired_count_ = 0;
  std::size_t ptpage_count_ = 0;
  mutable sim::Vaddr cache_va_ = 0;
  mutable bool cache_valid_ = false;
};

}  // namespace mmu

#endif  // SRC_MMU_PMAP_H_
