#include "src/phys/phys_mem.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "src/sim/assert.h"

namespace phys {

void PageList::PushTail(Page* p) {
  SIM_ASSERT(p->q_next == nullptr && p->q_prev == nullptr);
  p->q_prev = tail_;
  if (tail_ != nullptr) {
    tail_->q_next = p;
  } else {
    head_ = p;
  }
  tail_ = p;
  ++size_;
}

void PageList::Remove(Page* p) {
  if (p->q_prev != nullptr) {
    p->q_prev->q_next = p->q_next;
  } else {
    SIM_ASSERT(head_ == p);
    head_ = p->q_next;
  }
  if (p->q_next != nullptr) {
    p->q_next->q_prev = p->q_prev;
  } else {
    SIM_ASSERT(tail_ == p);
    tail_ = p->q_prev;
  }
  p->q_next = nullptr;
  p->q_prev = nullptr;
  SIM_ASSERT(size_ > 0);
  --size_;
}

PhysMem::PhysMem(sim::Machine& machine, std::size_t num_pages)
    : machine_(machine),
      queue_lock_(machine, "phys.pagequeue", sim::LockRank::kPageQueue),
      pages_(num_pages),
      bytes_(num_pages, sim::HostPages::Residency::kPopulated) {
  for (std::size_t i = 0; i < num_pages; ++i) {
    pages_[i].pfn = static_cast<sim::Pfn>(i);
    pages_[i].queue = PageQueue::kFree;
    free_.PushTail(&pages_[i]);
  }
  // Default free target: 5% of memory, matching the classic BSD pagedaemon
  // "free_min" style threshold.
  free_target_ = num_pages / 20 + 4;
  machine_.pressure().RegisterActuator(
      sim::PressureResource::kPhysPages,
      [this](const sim::PressureEvent& ev) {
        SetBalloonTarget(sim::BalloonTarget(balloon_target_, pages_.size(), ev));
      });
  machine_.faults().RegisterMemActuator(
      [this](const sim::MemFaultEvent& ev, sim::Rng& rng) {
        if (ev.random) {
          PoisonRandom(ev.count, rng);
        } else {
          SIM_ASSERT_MSG(ev.pfn < pages_.size(), "memfault plan poisons a pfn out of range");
          PoisonPfn(static_cast<sim::Pfn>(ev.pfn));
        }
      });
  audit_token_ = machine_.auditor().Register(
      "phys.pool", [this](sim::Auditor& a) { AuditPool(a); });
}

PhysMem::~PhysMem() { machine_.auditor().Unregister(audit_token_); }

std::size_t PhysMem::BalloonFloor() const {
  std::size_t floor = std::max(free_min_, free_reserve_);
  return std::max<std::size_t>(floor, 4);
}

void PhysMem::AbsorbBalloon() {
  while (balloon_.size() < balloon_target_ && free_.size() > BalloonFloor()) {
    Page* p = free_.head();  // oldest free frame: coldest, never live data
    free_.Remove(p);
    p->queue = PageQueue::kNone;
    balloon_.push_back(p);
  }
}

void PhysMem::ReleaseBalloon() {
  while (balloon_.size() > balloon_target_) {
    Page* p = balloon_.back();
    balloon_.pop_back();
    p->queue = PageQueue::kFree;
    free_.PushTail(p);
  }
}

void PhysMem::SetBalloonTarget(std::size_t target) {
  sim::LockGuard g(queue_lock_);
  balloon_target_ = target;
  AbsorbBalloon();  // any deficit left is absorbed by future FreePage calls
  ReleaseBalloon();
}

Page* PhysMem::AllocPage(OwnerKind kind, void* owner, sim::ObjOffset offset, bool zero,
                         AllocPri pri) {
  // Poll before taking the queue lock: pressure/memfault actuators
  // (SetBalloonTarget, PoisonPfn) take it themselves.
  machine_.PollPressure();
  sim::LockGuard g(queue_lock_);
  Page* p = free_.head();
  bool emergency = pri == AllocPri::kEmergency || pageout_depth_ > 0;
  if (p == nullptr || (!emergency && free_.size() <= free_reserve_)) {
    ++machine_.stats().page_alloc_failures;
    return nullptr;
  }
  if (emergency && free_.size() <= free_reserve_) {
    ++machine_.stats().emergency_page_allocs;
  }
  free_.Remove(p);
  p->queue = PageQueue::kNone;
  p->owner_kind = kind;
  p->owner = owner;
  p->offset = offset;
  p->wire_count = 0;
  p->loan_count = 0;
  p->dirty = false;
  p->referenced = false;
  if (zero) {
    ZeroPage(p);
  }
  return p;
}

void PhysMem::FreePage(Page* p) {
  SIM_ASSERT_MSG(p->wire_count == 0, "freeing wired page");
  SIM_ASSERT_MSG(p->loan_count == 0, "freeing loaned page");
  sim::LockGuard g(queue_lock_);
  // The frame's identity dies here: anyone still holding a Page* captured
  // before a blocking call sees the bump through FrameIsCurrent.
  ++p->gen;
  if (p->queue != PageQueue::kNone) {
    if (p->queue == PageQueue::kActive) {
      active_.Remove(p);
    } else if (p->queue == PageQueue::kInactive) {
      inactive_.Remove(p);
    } else {
      SIM_PANIC("freeing a free page");
    }
  }
  if (p->poisoned) {
    p->queue = PageQueue::kNone;
    RetirePageLocked(p);
    return;
  }
  p->owner_kind = OwnerKind::kNone;
  p->owner = nullptr;
  p->offset = 0;
  p->dirty = false;
  p->queue = PageQueue::kFree;
  free_.PushTail(p);
  // Absorb one frame of any outstanding balloon deficit; repeated frees
  // converge on the target without ever squeezing past the floor.
  if (balloon_.size() < balloon_target_ && free_.size() > BalloonFloor()) {
    Page* b = free_.head();
    free_.Remove(b);
    b->queue = PageQueue::kNone;
    balloon_.push_back(b);
  }
}

void PhysMem::Activate(Page* p) {
  sim::LockGuard g(queue_lock_);
  ActivateLocked(p);
}

void PhysMem::ActivateLocked(Page* p) {
  DequeueLocked(p);
  p->queue = PageQueue::kActive;
  active_.PushTail(p);
}

void PhysMem::Deactivate(Page* p) {
  sim::LockGuard g(queue_lock_);
  DequeueLocked(p);
  p->queue = PageQueue::kInactive;
  inactive_.PushTail(p);
}

void PhysMem::Dequeue(Page* p) {
  sim::LockGuard g(queue_lock_);
  DequeueLocked(p);
}

void PhysMem::DequeueLocked(Page* p) {
  switch (p->queue) {
    case PageQueue::kNone:
      return;
    case PageQueue::kActive:
      active_.Remove(p);
      break;
    case PageQueue::kInactive:
      inactive_.Remove(p);
      break;
    case PageQueue::kFree:
      SIM_PANIC("dequeue of free page");
  }
  p->queue = PageQueue::kNone;
}

void PhysMem::Wire(Page* p) {
  sim::LockGuard g(queue_lock_);
  if (p->wire_count == 0) {
    DequeueLocked(p);
  }
  ++p->wire_count;
}

void PhysMem::Unwire(Page* p) {
  sim::LockGuard g(queue_lock_);
  SIM_ASSERT(p->wire_count > 0);
  --p->wire_count;
  if (p->wire_count == 0) {
    ActivateLocked(p);
  }
}

bool PhysMem::FrameIsCurrent(const sim::LockToken& token, const Page* p,
                             std::uint32_t gen) const {
  SIM_ASSERT_MSG(&token.lock() == &queue_lock_,
                 "FrameIsCurrent requires the page-queue lock");
  return p->gen == gen;
}

std::span<std::byte, sim::kPageSize> PhysMem::Data(Page* p) { return bytes_.Page(p->pfn); }

std::span<const std::byte, sim::kPageSize> PhysMem::Data(const Page* p) const {
  return bytes_.Page(p->pfn);
}

void PhysMem::CopyPage(const Page* src, Page* dst) {
  std::memcpy(bytes_.Page(dst->pfn).data(), bytes_.Page(src->pfn).data(), sim::kPageSize);
  machine_.Charge(sim::CostCat::kCopy, machine_.cost().page_copy_ns);
  ++machine_.stats().pages_copied;
}

void PhysMem::ZeroPage(Page* p) {
  std::memset(bytes_.Page(p->pfn).data(), 0, sim::kPageSize);
  machine_.Charge(sim::CostCat::kCopy, machine_.cost().page_zero_ns);
  ++machine_.stats().pages_zeroed;
}

Page* PhysMem::PageAt(sim::Pfn pfn) {
  SIM_ASSERT(pfn < pages_.size());
  return &pages_[pfn];
}

bool PhysMem::PoisonPfn(sim::Pfn pfn) {
  SIM_ASSERT(pfn < pages_.size());
  Page* p = &pages_[pfn];
  if (p->poisoned) {
    return false;
  }
  p->poisoned = true;
  p->poison_gen = ++poison_gen_;
  ++poisoned_count_;
  ++machine_.stats().frames_poisoned;
  {
    sim::LockGuard g(queue_lock_);
    if (p->queue == PageQueue::kFree) {
      // Idle frame: retire on the spot, before the allocator can hand it
      // out. An idle retirement kills the frame's identity just as a free
      // does.
      free_.Remove(p);
      p->queue = PageQueue::kNone;
      ++p->gen;
      ++retired_count_;
      return true;
    }
    auto it = std::find(balloon_.begin(), balloon_.end(), p);
    if (it != balloon_.end()) {
      // Ballooned frame: retire it and let the balloon absorb a replacement
      // so the scripted pressure level is preserved.
      balloon_.erase(it);
      ++p->gen;
      ++retired_count_;
      AbsorbBalloon();
      return true;
    }
  }
  // The queue guard is released before the machine-check hooks fire: they
  // call back into the MMU and VM layers (PageProtect, loan revocation),
  // which re-enter the queue entry points.
  // Frames holding live data stay put: the owning VM contains them when the
  // poison is discovered (fault path or pagedaemon scan). Fire the
  // machine-check hooks so the layers above can unmap the frame everywhere
  // and break any loans right now — after this, touching the data faults.
  for (auto& [token, fn] : poison_hooks_) {
    fn(p);
  }
  return true;
}

int PhysMem::AddPoisonHook(std::function<void(Page*)> fn) {
  int token = next_poison_hook_token_++;
  poison_hooks_.emplace_back(token, std::move(fn));
  return token;
}

void PhysMem::RemovePoisonHook(int token) {
  for (auto it = poison_hooks_.begin(); it != poison_hooks_.end(); ++it) {
    if (it->first == token) {
      poison_hooks_.erase(it);
      return;
    }
  }
}

void PhysMem::PoisonRandom(std::uint64_t count, sim::Rng& rng) {
  for (std::uint64_t k = 0; k < count; ++k) {
    const std::size_t n = pages_.size();
    const std::size_t start = static_cast<std::size_t>(rng.Below(n));
    bool hit = false;
    for (std::size_t i = 0; i < n; ++i) {
      Page* p = &pages_[(start + i) % n];
      if (p->poisoned || p->wire_count > 0 || p->owner_kind == OwnerKind::kKernel) {
        continue;
      }
      PoisonPfn(p->pfn);
      hit = true;
      break;
    }
    if (!hit) {
      return;  // every eligible frame is already poisoned
    }
  }
}

void PhysMem::RetirePageLocked(Page* p) {
  SIM_ASSERT_MSG(p->poisoned, "retiring an unpoisoned page");
  SIM_ASSERT(p->wire_count == 0 && p->loan_count == 0);
  SIM_ASSERT(p->queue == PageQueue::kNone);
  p->owner_kind = OwnerKind::kNone;
  p->owner = nullptr;
  p->offset = 0;
  p->dirty = false;
  ++retired_count_;
}

void PhysMem::AuditPool(sim::Auditor& auditor) const {
  std::size_t tag_free = 0, tag_active = 0, tag_inactive = 0;
  std::size_t poisoned_n = 0, retired_n = 0;
  for (const Page& p : pages_) {
    switch (p.queue) {
      case PageQueue::kFree:
        ++tag_free;
        if (p.owner_kind != OwnerKind::kNone) {
          auditor.Fail("owned frame tagged free: pfn " + std::to_string(p.pfn));
        }
        if (p.poisoned) {
          auditor.Fail("poisoned frame on the free list: pfn " + std::to_string(p.pfn));
        }
        break;
      case PageQueue::kActive:
        ++tag_active;
        break;
      case PageQueue::kInactive:
        ++tag_inactive;
        break;
      case PageQueue::kNone:
        break;
    }
    if (p.poisoned) {
      ++poisoned_n;
      if (p.poison_gen == 0) {
        auditor.Fail("poisoned frame without a generation tag: pfn " + std::to_string(p.pfn));
      }
      if (p.owner_kind == OwnerKind::kNone && p.queue == PageQueue::kNone &&
          p.wire_count == 0) {
        ++retired_n;
      }
    } else if (p.poison_gen != 0) {
      auditor.Fail("generation tag on an unpoisoned frame: pfn " + std::to_string(p.pfn));
    }
  }
  if (tag_free != free_.size()) {
    auditor.Fail("free-tag count " + std::to_string(tag_free) + " != free list size " +
                 std::to_string(free_.size()));
  }
  if (tag_active != active_.size()) {
    auditor.Fail("active-tag count " + std::to_string(tag_active) + " != active queue size " +
                 std::to_string(active_.size()));
  }
  if (tag_inactive != inactive_.size()) {
    auditor.Fail("inactive-tag count " + std::to_string(tag_inactive) +
                 " != inactive queue size " + std::to_string(inactive_.size()));
  }
  for (const Page* b : balloon_) {
    if (b->poisoned || b->owner_kind != OwnerKind::kNone || b->queue != PageQueue::kNone) {
      auditor.Fail("balloon holds a non-idle frame: pfn " + std::to_string(b->pfn));
    }
  }
  if (poisoned_n != poisoned_count_) {
    auditor.Fail("poisoned recount " + std::to_string(poisoned_n) + " != poisoned_count " +
                 std::to_string(poisoned_count_));
  }
  if (poisoned_count_ != static_cast<std::size_t>(machine_.stats().frames_poisoned)) {
    auditor.Fail("poisoned_count " + std::to_string(poisoned_count_) +
                 " != stats.frames_poisoned " +
                 std::to_string(machine_.stats().frames_poisoned));
  }
  // Retired frames are exactly the unowned, unqueued, unwired poisoned
  // ones; a mismatch means a retired frame re-entered circulation (or a
  // live poisoned frame was dropped without going through containment).
  if (retired_n != retired_count_) {
    auditor.Fail("retired recount " + std::to_string(retired_n) + " != retired_count " +
                 std::to_string(retired_count_));
  }
  // Walk the free list itself so the intrusive links agree with the tags.
  std::size_t walked = 0;
  for (const Page* p = free_.head(); p != nullptr; p = p->q_next) {
    ++walked;
    if (walked > pages_.size()) {
      auditor.Fail("free list is cyclic");
      break;
    }
  }
  if (walked != free_.size()) {
    auditor.Fail("free list walk " + std::to_string(walked) + " != recorded size " +
                 std::to_string(free_.size()));
  }
}

}  // namespace phys
