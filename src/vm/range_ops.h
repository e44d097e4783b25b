// The range operations both VM systems implement identically: mprotect,
// minherit, madvise, mlock and munlock. Each is one locked walk — lock the
// map, reserve the worst-case clips, clip every entry to the range, apply —
// over either VM's sim::AddrMap. The per-VM parts come in as callables:
// ref(entry) takes the references a clip adds (amap + uobj for UVM, the
// object for BSD VM) and the wire path's fault-with-map-locked. What the
// paper compares about wiring (§3.2) is where *transient* wiring is
// recorded, which stays in each VM's WireTransient.
#ifndef SRC_VM_RANGE_OPS_H_
#define SRC_VM_RANGE_OPS_H_

#include <cstdint>

#include "src/mmu/pmap.h"
#include "src/phys/phys_mem.h"
#include "src/sim/assert.h"
#include "src/sim/types.h"

namespace kern {

// Walk the entries of [start, end) under the map lock. check(entry) runs on
// each entry before it is clipped: a non-kOk result ends the walk and
// leaves that entry unclipped. apply(it) runs on the clipped entry and may
// re-point `it` (the wire path re-finds its entry after faulting); a
// non-kOk result ends the walk. Returns `if_unmapped` when no entry
// contains `start`, and kErrMapEntryPool when the clips cannot be reserved.
template <typename Map, typename Ref, typename Check, typename Apply>
int ClippedRangeWalk(Map& map, sim::Vaddr start, sim::Vaddr end, int if_unmapped, Ref&& ref,
                     Check&& check, Apply&& apply) {
  map.Lock();
  typename Map::ClipReservation clipres;
  int err = clipres.Acquire(map, start, end);
  if (err == sim::kOk) {
    auto it = map.LookupEntry(start);
    if (it == map.entries().end()) {
      err = if_unmapped;
    }
    for (; err == sim::kOk && it != map.entries().end() && it->start < end; ++it) {
      if ((err = check(*it)) != sim::kOk) {
        break;
      }
      it = map.ClipTo(it, start, end, ref);
      err = apply(it);
    }
  }
  map.Unlock();
  return err;
}

// Clear the wiring of every wired PTE in [start, end) and unwire its frame.
inline void UnwirePages(mmu::Pmap& pmap, phys::PhysMem& pm, sim::Vaddr start, sim::Vaddr end) {
  for (sim::Vaddr va = start; va < end; va += sim::kPageSize) {
    auto pte = pmap.Extract(va);
    if (pte.has_value() && pte->wired) {
      pm.Unwire(pm.PageAt(pte->pfn));
      pmap.ChangeWiring(va, false);
    }
  }
}

// Set one attribute on every entry of [addr, addr+len); nothing past the
// entry itself changes.
template <typename Map, typename Ref, typename Set>
int SetRangeAttr(Map& map, sim::Vaddr addr, std::uint64_t len, Ref&& ref, Set&& set) {
  sim::Vaddr end = addr + sim::PageRound(len);
  return ClippedRangeWalk(
      map, addr, end, sim::kOk, ref, [](const auto&) { return sim::kOk; },
      [&](auto& it) {
        set(*it);
        return sim::kOk;
      });
}

// mprotect: every entry must allow `prot` under its max_prot, checked
// entry by entry before clipping (entries already changed keep the change).
template <typename Map, typename Ref>
int ProtectRange(Map& map, mmu::Pmap& pmap, sim::Vaddr addr, std::uint64_t len, sim::Prot prot,
                 Ref&& ref) {
  sim::Vaddr end = addr + sim::PageRound(len);
  return ClippedRangeWalk(
      map, addr, end, sim::kOk, ref,
      [&](const auto& e) { return sim::ProtIncludes(e.max_prot, prot) ? sim::kOk : sim::kErrProt; },
      [&](auto& it) {
        it->prot = prot;
        pmap.IntersectProtRange(it->start, it->end, prot);
        return sim::kOk;
      });
}

// mlock: the range must start mapped. An entry's first wiring faults in
// every missing page through fault(va, access) — the entry is already
// marked wired, so the fault wires the page — and wires resident ones.
template <typename Map, typename Ref, typename Fault>
int WireRange(Map& map, mmu::Pmap& pmap, phys::PhysMem& pm, sim::Vaddr addr, std::uint64_t len,
              Ref&& ref, Fault&& fault) {
  sim::Vaddr end = sim::PageRound(addr + len);
  return ClippedRangeWalk(
      map, sim::PageTrunc(addr), end, sim::kErrFault, ref, [](const auto&) { return sim::kOk; },
      [&](auto& it) {
        if (++it->wired_count != 1) {
          return sim::kOk;
        }
        sim::Vaddr estart = it->start;
        sim::Vaddr eend = it->end;
        sim::Access acc = sim::CanWrite(it->prot) ? sim::Access::kWrite : sim::Access::kRead;
        for (sim::Vaddr va = estart; va < eend; va += sim::kPageSize) {
          auto pte = pmap.Extract(va);
          if (!pte.has_value()) {
            if (int err = fault(va, acc); err != sim::kOk) {
              return err;
            }
            pte = pmap.Extract(va);
            SIM_ASSERT(pte.has_value() && pte->wired);
          } else if (!pte->wired) {
            pm.Wire(pm.PageAt(pte->pfn));
            pmap.ChangeWiring(va, true);
          }
        }
        // Faulting may invalidate iterators (nested ops do not clip here,
        // but be conservative): re-find the entry.
        it = map.LookupEntry(estart);
        SIM_ASSERT(it != map.entries().end());
        return sim::kOk;
      });
}

// munlock: the last unwiring of an entry unwires its pages.
template <typename Map, typename Ref>
int UnwireRange(Map& map, mmu::Pmap& pmap, phys::PhysMem& pm, sim::Vaddr addr, std::uint64_t len,
                Ref&& ref) {
  sim::Vaddr end = sim::PageRound(addr + len);
  return ClippedRangeWalk(
      map, sim::PageTrunc(addr), end, sim::kOk, ref, [](const auto&) { return sim::kOk; },
      [&](auto& it) {
        if (it->wired_count > 0 && --it->wired_count == 0) {
          UnwirePages(pmap, pm, it->start, it->end);
        }
        return sim::kOk;
      });
}

}  // namespace kern

#endif  // SRC_VM_RANGE_OPS_H_
