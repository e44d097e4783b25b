// The pagedaemon mechanics both VM systems share (§6): the second-chance
// scan of the paging queues and the allocate-or-reclaim retry. What the
// paper actually compares stays per VM and comes in as callables: how a
// poisoned page is contained, and how one unpinned page is reclaimed (UVM's
// clustered anon/object pageout versus BSD VM's one-page PutPage plus the
// collapse trigger). With one copy of the scan, a measured UVM-vs-BSD
// difference can only come from those callables.
#ifndef SRC_PHYS_PAGEDAEMON_H_
#define SRC_PHYS_PAGEDAEMON_H_

#include <cstddef>

#include "src/phys/page.h"
#include "src/phys/phys_mem.h"
#include "src/sim/retry.h"
#include "src/sim/types.h"

namespace phys {

// Reclaim until `target_free` frames are free or nothing more can be done;
// returns the sum of reclaim()'s results. Each step looks at the head of
// the inactive queue (refilled from the head of the active queue, reference
// bits cleared, whenever it runs dry):
//  - poisoned: charge poison_contain_ns and call contain(p) — checked before
//    the reference bit, because a poisoned frame must leave circulation,
//    not get another lap of the queues;
//  - referenced: clear the bit and re-activate (second chance);
//  - wired or loaned: dequeue; unwiring/unloaning re-queues it;
//  - otherwise: reclaim(p) returns how many frames it freed.
// Both callables must take `p` off the inactive queue. The guard bounds the
// scan at four laps of memory, so a reclaim that frees nothing still ends.
template <typename Contain, typename Reclaim>
std::size_t ScanQueues(PhysMem& pm, std::size_t target_free, Contain&& contain,
                       Reclaim&& reclaim) {
  PageoutScope pageout_scope(pm);  // daemon allocations may use the reserve
  sim::Machine& machine = pm.machine();
  std::size_t freed = 0;
  std::size_t guard = pm.total_pages() * 4 + 64;
  while (pm.free_pages() < target_free && guard-- > 0) {
    if (pm.inactive_queue().empty()) {
      std::size_t want = (target_free - pm.free_pages()) * 2 + 4;
      while (want-- > 0 && !pm.active_queue().empty()) {
        Page* ap = pm.active_queue().head();
        ap->referenced = false;
        pm.Deactivate(ap);
      }
      if (pm.inactive_queue().empty()) {
        break;  // nothing reclaimable
      }
    }
    Page* p = pm.inactive_queue().head();
    if (p->poisoned) {
      machine.Charge(sim::CostCat::kPoison, machine.cost().poison_contain_ns);
      contain(p);
      continue;
    }
    if (p->referenced) {
      p->referenced = false;
      pm.Activate(p);
      continue;
    }
    if (p->wire_count > 0 || p->loan_count > 0) {
      pm.Dequeue(p);
      continue;
    }
    freed += reclaim(p);
  }
  return freed;
}

// Allocate a frame; when none is free, run daemon() (a pagedaemon pass)
// and try again. Under sustained pressure one pass may not recover enough,
// so up to `max_retries` further passes follow, each preceded by a doubling
// mem_retry_backoff_ns and counted in Stats::alloc_retries. nullptr means
// memory is truly exhausted: a clean failure instead of a hang.
template <typename Daemon>
Page* AllocOrReclaim(PhysMem& pm, int max_retries, OwnerKind kind, void* owner,
                     sim::ObjOffset offset, bool zero, Daemon&& daemon) {
  Page* p = pm.AllocPage(kind, owner, offset, zero);
  if (p == nullptr) {
    daemon();
    p = pm.AllocPage(kind, owner, offset, zero);
  }
  if (p == nullptr) {
    sim::Machine& machine = pm.machine();
    sim::RetryWithBackoff(
        machine, {max_retries, machine.cost().mem_retry_backoff_ns, &machine.stats().alloc_retries},
        [&] { return (p = pm.AllocPage(kind, owner, offset, zero)) != nullptr; },
        [&](int) { daemon(); });
  }
  return p;
}

}  // namespace phys

#endif  // SRC_PHYS_PAGEDAEMON_H_
