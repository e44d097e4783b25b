// Simulated physical memory: a fixed array of page frames with real byte
// contents, a free list, and the active/inactive paging queues shared by
// both VM systems' pagedaemons.
#ifndef SRC_PHYS_PHYS_MEM_H_
#define SRC_PHYS_PHYS_MEM_H_

#include <cstddef>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "src/phys/page.h"
#include "src/sim/lock.h"
#include "src/sim/machine.h"
#include "src/sim/pressure.h"
#include "src/sim/rng.h"
#include "src/sim/types.h"

namespace phys {

// Allocation priority. Normal allocations fail once the free list is down
// to the emergency reserve; emergency allocations (the pageout path and
// page-table pages — memory needed to *free* memory) may consume it. See
// DESIGN.md §12.
enum class AllocPri : std::uint8_t { kNormal, kEmergency };

// An intrusive FIFO queue of pages. Enqueue at tail, scan/dequeue from head,
// so the head is the least recently enqueued page (LRU order for the
// inactive queue).
class PageList {
 public:
  void PushTail(Page* p);
  void Remove(Page* p);
  Page* head() const { return head_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  Page* head_ = nullptr;
  Page* tail_ = nullptr;
  std::size_t size_ = 0;
};

class PhysMem {
 public:
  PhysMem(sim::Machine& machine, std::size_t num_pages);
  ~PhysMem();

  PhysMem(const PhysMem&) = delete;
  PhysMem& operator=(const PhysMem&) = delete;

  std::size_t total_pages() const { return pages_.size(); }
  std::size_t free_pages() const { return free_.size(); }
  std::size_t active_pages() const { return active_.size(); }
  std::size_t inactive_pages() const { return inactive_.size(); }
  // Frames ever poisoned (none is ever un-poisoned).
  std::size_t poisoned_pages() const { return poisoned_count_; }
  // Poisoned frames already out of circulation: unowned and permanently
  // retired from the allocator. The remaining poisoned frames still carry
  // live data and await containment on discovery.
  std::size_t retired_pages() const { return retired_count_; }

  // Number of free pages below which callers should run the pagedaemon.
  std::size_t free_target() const { return free_target_; }
  bool NeedsPageDaemon() const { return free_.size() < free_target_; }

  // Watermarks below the daemon target (both default 0 = disabled,
  // preserving historical behaviour byte-for-byte):
  //  - free_reserve: emergency pool. Normal allocations fail once the free
  //    list is down to this many frames; only AllocPri::kEmergency (pageout
  //    path, PT pages) may dip below it, so the daemon can never deadlock
  //    on the memory it is trying to free.
  //  - free_min: hard floor the balloon never squeezes past.
  std::size_t free_reserve() const { return free_reserve_; }
  void set_free_reserve(std::size_t n) { free_reserve_ = n; }
  std::size_t free_min() const { return free_min_; }
  void set_free_min(std::size_t n) { free_min_ = n; }

  // Pressure balloon: frames taken out of service by a pressure plan.
  // Shrinks absorb free frames (never live data) up to the balloon target;
  // any deficit is absorbed as frames are freed. Grows deflate LIFO.
  std::size_t balloon_pages() const { return balloon_.size(); }
  std::size_t balloon_target() const { return balloon_target_; }
  void SetBalloonTarget(std::size_t target);

  // Allocate a frame for `owner`; returns nullptr when no free frame exists
  // or (for normal-priority requests) the free list is down to the
  // emergency reserve — the caller must reclaim memory and retry. If
  // `zero` is set the frame contents are cleared and the zero cost is
  // charged.
  Page* AllocPage(OwnerKind kind, void* owner, sim::ObjOffset offset, bool zero,
                  AllocPri pri = AllocPri::kNormal);

  // True while a pagedaemon pass is on the stack (see PageoutScope):
  // allocations made from inside it are implicitly emergency-priority.
  bool in_pageout() const { return pageout_depth_ > 0; }

  // Release a frame back to the free list. The page must be unwired and off
  // the paging queues or on one (it is removed).
  void FreePage(Page* p);

  // Queue management.
  void Activate(Page* p);    // move to tail of active queue
  void Deactivate(Page* p);  // move to tail of inactive queue
  void Dequeue(Page* p);     // remove from any queue (park off-queue)

  // Wiring. A wired page is removed from the paging queues; unwiring a page
  // back to wire_count zero re-activates it.
  void Wire(Page* p);
  void Unwire(Page* p);

  // The page-queue lock. Every queue-mutating entry point takes it
  // internally; callers acquire it only to mint the LockToken that
  // FrameIsCurrent demands.
  sim::SimLock& queue_lock() { return queue_lock_; }

  // True iff the frame has not been freed (and possibly reallocated) since
  // the caller captured `gen`. Fault paths holding a bare Page* across a
  // blocking allocation re-validate with this before touching the frame.
  // The token proves the caller holds the queue lock, so the answer cannot
  // rot before it acts on it.
  bool FrameIsCurrent(const sim::LockToken& token, const Page* p,
                      std::uint32_t gen) const;

  // Contents access.
  std::span<std::byte, sim::kPageSize> Data(Page* p);
  std::span<const std::byte, sim::kPageSize> Data(const Page* p) const;

  // Copy / zero helpers that charge the cost model and maintain stats.
  void CopyPage(const Page* src, Page* dst);
  void ZeroPage(Page* p);

  Page* PageAt(sim::Pfn pfn);
  PageList& inactive_queue() { return inactive_; }
  PageList& active_queue() { return active_; }

  sim::Machine& machine() { return machine_; }

  // --- Memory-error (hwpoison) injection, DESIGN.md §13 ---
  // Poison one frame: mark it, stamp the generation tag, and when the frame
  // is idle (free or ballooned) retire it from circulation on the spot.
  // Frames holding live data stay put — the VM systems contain them when
  // the poison is discovered at fault time or by the pagedaemon. Returns
  // false when the frame was already poisoned (no state changes).
  bool PoisonPfn(sim::Pfn pfn);
  // Poison `count` pseudo-randomly chosen eligible frames (not poisoned,
  // not wired, not kernel-owned: a scrubber hit on user/page-cache memory,
  // so scripted random storms never force an uncontainable panic). Frames
  // are drawn from `rng` — the fault injector's seeded stream — by linear
  // probing from a random start, so a given seed poisons the same frames
  // on every run. Stops early when no eligible frame remains.
  void PoisonRandom(std::uint64_t count, sim::Rng& rng);

  // Layers above register how to react the moment a *live* frame is
  // poisoned (the machine-check handler analogue): the MMU unmaps
  // unwired frames through the pv chain, UVM revokes loans. Hooks run in
  // registration order — construction order of the layers, bottom-up — and
  // only for frames holding data (idle frames retire silently). Returns a
  // token for RemovePoisonHook.
  int AddPoisonHook(std::function<void(Page*)> fn);
  void RemovePoisonHook(int token);

 private:
  friend class PageoutScope;

  // Queue steps under the queue lock, for internal nesting (Activate/Wire
  // dequeue first, Unwire re-activates, FreePage retires a poisoned frame)
  // without re-entering the non-recursive queue lock.
  void ActivateLocked(Page* p);
  void DequeueLocked(Page* p);
  void RetirePageLocked(Page* p);

  // Registered with sim::Auditor: pool accounting (queue tags vs list
  // membership vs Stats) and poison retirement invariants.
  void AuditPool(sim::Auditor& auditor) const;

  // Floor the balloon may not squeeze the free list below: enough frames
  // for the emergency reserve plus a minimal working margin, so the
  // daemon always has room to make progress.
  std::size_t BalloonFloor() const;
  void AbsorbBalloon();   // free list -> balloon, up to target/floor
  void ReleaseBalloon();  // balloon -> free list, down to target

  sim::Machine& machine_;
  // Guards the free list, the paging queues, wire counts, the balloon, and
  // frame generations. Zero acquire cost: the paper's model charges lock
  // costs only at the map/object level, and adding a cost here would change
  // every bench byte (DESIGN.md §15).
  sim::SimLock queue_lock_;
  std::vector<Page> pages_;
  std::vector<std::byte> bytes_;
  PageList free_;
  PageList active_;
  PageList inactive_;
  std::size_t free_target_ = 0;
  std::size_t free_reserve_ = 0;
  std::size_t free_min_ = 0;
  std::vector<Page*> balloon_;
  std::size_t balloon_target_ = 0;
  int pageout_depth_ = 0;
  std::size_t poisoned_count_ = 0;
  std::size_t retired_count_ = 0;
  std::uint32_t poison_gen_ = 0;
  int audit_token_ = 0;
  std::vector<std::pair<int, std::function<void(Page*)>>> poison_hooks_;
  int next_poison_hook_token_ = 1;
};

// RAII marker wrapping a pagedaemon pass: page allocations made while one
// is on the stack may dip into the emergency reserve.
class PageoutScope {
 public:
  explicit PageoutScope(PhysMem& pm) : pm_(pm) { ++pm_.pageout_depth_; }
  ~PageoutScope() { --pm_.pageout_depth_; }
  PageoutScope(const PageoutScope&) = delete;
  PageoutScope& operator=(const PageoutScope&) = delete;

 private:
  PhysMem& pm_;
};

}  // namespace phys

#endif  // SRC_PHYS_PHYS_MEM_H_
