// The map and fault steps both VM systems take identically: the fault
// entry and its final pmap enter, the unmap walk, the mprotect, minherit,
// madvise, mlock and munlock range walks, the mincore lookup loop and the
// msync / MADV_FREE overlap walk, plus device-frame teardown and the
// poison-refetch count. Each walk runs over either VM's sim::AddrMap; the
// per-VM parts come in as callables: ref(entry) takes the references a clip
// adds (amap + uobj for UVM, the object for BSD VM), resolve(entry, va,
// write) is the VM's own fault resolution, take(entry) collects what an
// unmapped entry held, resident(entry, va) is its residency test and
// visit(entry, lo, hi) its msync or MADV_FREE step. What the paper compares
// stays with each VM: how a fault finds its page (amaps vs shadow chains,
// §5), when unmap drops the references it took (§3.1), where *transient*
// wiring is recorded (§3.2), and how msync clusters its writes (§6).
#ifndef SRC_VM_RANGE_OPS_H_
#define SRC_VM_RANGE_OPS_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/mmu/pmap.h"
#include "src/phys/page_store.h"
#include "src/phys/phys_mem.h"
#include "src/sim/assert.h"
#include "src/sim/machine.h"
#include "src/sim/types.h"

namespace kern {

// The fault entry: open the fault scope, charge the trap and look the page
// up under the map lock. map_locked is the wire path, which faults pages in
// while it already holds the map lock (not recursive: SimLock panics on
// re-entry). An unmapped `va` is kErrFault and a protection the access
// breaks is kErrProt; otherwise resolve(entry, va, write) maps the page,
// and a kErrIO it returns is a pagein error surfaced to the process.
template <typename Map, typename Resolve>
int HandleFault(sim::Machine& machine, const char* scope_name, Map& map, bool map_locked,
                sim::Vaddr va, sim::Access access, Resolve&& resolve) {
  sim::ChargeScope scope(machine, sim::CostCat::kFault, scope_name);
  machine.Charge(machine.cost().fault_entry_ns);
  ++machine.stats().faults;
  va = sim::PageTrunc(va);
  const bool write = access == sim::Access::kWrite;
  auto fault_locked = [&] {
    auto it = map.LookupEntry(va);
    if (it == map.entries().end()) {
      return sim::kErrFault;
    }
    if (!sim::ProtIncludes(it->prot, write ? sim::Prot::kWrite : sim::Prot::kRead)) {
      return sim::kErrProt;
    }
    int err = resolve(*it, va, write);
    if (err == sim::kErrIO) {
      ++machine.stats().pagein_errors;
    }
    return err;
  };
  if (map_locked) {
    SIM_ASSERT(map.IsLocked());
    return fault_locked();
  }
  map.Lock();
  int err = fault_locked();
  map.Unlock();
  return err;
}

// The last step of a fault: enter `page` at `va`. In a wired entry a fault
// may have replaced the mapped page (a COW copy), so the physical wire
// follows the page; old_pte is the translation the fault started from.
inline void EnterFaultedPage(mmu::Pmap& pmap, phys::PhysMem& pm, sim::Vaddr va, phys::Page* page,
                             sim::Prot prot, bool wire, const std::optional<mmu::Pte>& old_pte) {
  const bool was_wired = old_pte.has_value() && old_pte->wired;
  if (wire && !(was_wired && old_pte->pfn == page->pfn)) {
    if (was_wired) {
      pm.Unwire(pm.PageAt(old_pte->pfn));
    }
    pm.Wire(page);
  }
  pmap.Enter(va, page, prot, wire);
  page->referenced = true;
  if (page->wire_count == 0) {
    pm.Activate(page);
  }
}

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

// munmap's locked walk; the caller holds the map lock. Reserves the clips,
// then walks from the first entry (no charged lookup). Each entry in
// [start, end) gets before_clip(entry), is clipped to the range, unwired
// and unmapped, handed to take(entry) and erased. What happens to the
// references take() collects is the per-VM part.
template <typename Map, typename Ref, typename BeforeClip, typename Take>
int UnmapRange(Map& map, mmu::Pmap& pmap, phys::PhysMem& pm, sim::Vaddr start, sim::Vaddr end,
               Ref&& ref, BeforeClip&& before_clip, Take&& take) {
  typename Map::ClipReservation clipres;
  if (int err = clipres.Acquire(map, start, end); err != sim::kOk) {
    return err;
  }
  auto it = map.entries().begin();
  while (it != map.entries().end() && it->start < end) {
    if (it->end <= start) {
      ++it;
      continue;
    }
    before_clip(*it);
    it = map.ClipTo(it, start, end, ref);
    if (it->wired_count > 0) {
      UnwirePages(pmap, pm, it->start, it->end);
    }
    pmap.RemoveRange(it->start, it->end);
    take(*it);
    map.EraseEntry(it++);
  }
  return sim::kOk;
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

// mincore(2): one charged lookup per page of [addr, addr+len) under the map
// lock, and resident(entry, va) for each. A hole anywhere is kErrFault.
template <typename Map, typename Resident>
int MincoreRange(Map& map, sim::Vaddr addr, std::uint64_t len, std::vector<bool>* out,
                 Resident&& resident) {
  len = sim::PageRound(len);
  out->clear();
  map.Lock();
  for (sim::Vaddr va = sim::PageTrunc(addr); va < addr + len; va += sim::kPageSize) {
    auto it = map.LookupEntry(va);
    if (it == map.entries().end()) {
      map.Unlock();
      return sim::kErrFault;
    }
    out->push_back(resident(*it, va));
  }
  map.Unlock();
  return sim::kOk;
}

// Under the map lock, visit(entry, lo, hi) for every entry that overlaps
// [addr, addr+len), with [lo, hi) the overlap. Clips nothing and charges
// nothing: msync and MADV_FREE act on the pages, not on the entries.
template <typename Map, typename Visit>
void ForEachOverlap(Map& map, sim::Vaddr addr, std::uint64_t len, Visit&& visit) {
  sim::Vaddr end = addr + sim::PageRound(len);
  map.Lock();
  for (auto& e : map.entries()) {
    if (e.end > addr && e.start < end) {
      visit(e, std::max(e.start, addr), std::min(e.end, end));
    }
  }
  map.Unlock();
}

// VM teardown of a device's wired frames, taken from the VM's own device
// object (the DeviceMem may already be gone: the kernel owns it).
inline void FreeDeviceFrames(mmu::MmuContext& mmu, phys::PhysMem& pm, phys::PageStore& pages) {
  while (!pages.empty()) {
    phys::Page* p = pages.begin()->second;
    pages.erase(p->offset);
    mmu.PageProtect(p, sim::Prot::kNone);
    pm.Unwire(p);
    pm.Dequeue(p);
    pm.FreePage(p);
  }
}

// A fault discarded a clean poisoned page; its backing copy (swap slot,
// vnode or zero fill) refetches it transparently. `what` names the trace
// instant.
inline void CountPoisonRefetch(sim::Machine& machine, const char* what, sim::Pfn pfn) {
  ++machine.stats().poison_discards;
  ++machine.stats().poison_refetches;
  if (machine.tracer().enabled()) {
    machine.tracer().Instant(sim::CostCat::kPoison, what, machine.clock().now(), pfn);
  }
}

}  // namespace kern

#endif  // SRC_VM_RANGE_OPS_H_
