// sim::SimLock — the lock-discipline capability layer (DESIGN.md §15).
//
// The paper's Section 3 credits UVM's fine-grained, per-object locking for
// its scalability over the giant-lock BSD VM. This layer turns every lock
// round-trip the cost model charges into a *named, ranked* lock object:
//
//  - Acquire/Release charge exactly the legacy `map_lock_ns` /
//    `object_lock_ns` model (zero-cost locks charge nothing at all, so the
//    eight paper benches stay byte-identical to the anonymous-charge era).
//  - A deterministic runtime rank validator panics on out-of-order or
//    re-entrant acquisition: a lock may only be taken while every held lock
//    has an equal or lower LockRank (see lock_registry.h for the table).
//  - Per-lock acquire counts and virtual hold time accumulate in the lock,
//    in aggregate Stats counters, and per-class in the LockRegistry — the
//    contention-accounting substrate for the deterministic-SMP work.
//  - Clang Thread Safety Analysis attributes (via annotations.h) make the
//    discipline statically checkable under the `tsa` CMake preset.
//
// SimLock's Acquire and RoundTrips are the ONLY sanctioned `CostCat::kLock`
// charge sites; simlint rule `naked-lock-charge` flags any other (escape
// hatch SIM_LOCK_CHARGE_OK).
#ifndef SRC_SIM_LOCK_H_
#define SRC_SIM_LOCK_H_

#include <cstdint>
#include <cstdio>
#include <vector>

#include "src/sim/annotations.h"
#include "src/sim/assert.h"
#include "src/sim/lock_registry.h"
#include "src/sim/machine.h"

namespace sim {

class SIM_CAPABILITY("mutex") SimLock {
 public:
  // Where an acquire's virtual cost is attributed. kLeaf charges
  // CostCat::kLock directly (the map lock: lock round-trips keep their own
  // category). kContext charges the innermost ChargeScope's category — the
  // BSD object-chain lock folds its cost into the enclosing fault charge,
  // exactly as the pre-SimLock code charged hop+lock in one call.
  enum class Attribution : std::uint8_t { kLeaf, kContext };

  // `acquire_ns` points into the machine's (immutable) cost model; null
  // means the lock itself costs nothing — its layer's operation costs
  // already subsume the round-trip, and a zero charge would still perturb
  // the printed CostBreakdown charge counts.
  SimLock(Machine& machine, const char* name, LockRank rank,
          const Nanoseconds* acquire_ns = nullptr,
          Attribution attribution = Attribution::kLeaf)
      : machine_(machine),
        name_(name),
        rank_(rank),
        acquire_ns_(acquire_ns),
        attribution_(attribution) {
    machine_.locks().Register(this, name_, rank_);
  }

  ~SimLock() {
    SIM_ASSERT_MSG(!held_, "lock destroyed while held");
    machine_.locks().Unregister(this, name_, rank_, acquisitions_, hold_ns_,
                                contended_acquires_, wait_ns_);
  }

  SimLock(const SimLock&) = delete;
  SimLock& operator=(const SimLock&) = delete;

  // Acquire the lock, charging `*acquire_ns_ + extra_ns` virtual time (the
  // extra covers call sites that fold a companion cost into the same charge,
  // e.g. the BSD chain walk's per-hop cost). Panics deterministically on
  // re-entrant acquisition and on rank-order violations.
  void Acquire(Nanoseconds extra_ns = 0) SIM_ACQUIRE() {
    const std::size_t cpu = machine_.locks().current_cpu();
    if (held_) {
      if (owner_cpu_ == cpu) {
        SIM_PANICF("re-entrant acquire of lock %s", name_);
      }
      // CPUs context-switch only at operation boundaries with empty held
      // stacks, so a lock still held by a *descheduled* CPU can never be
      // released while this CPU spins on it: a guaranteed deadlock, caught
      // deterministically (DESIGN.md §16).
      SIM_PANICF("deadlock: cpu%zu acquiring lock %s held by descheduled cpu%zu", cpu, name_,
                 owner_cpu_);
    }
    // Validate against the *maximum* rank over every held lock, not just the
    // innermost: PopHeld permits non-LIFO release, so after an out-of-order
    // release the back of the stack may no longer be the max-rank lock and
    // checking it alone would let a genuine rank inversion through.
    const SimLock* top = nullptr;
    for (const SimLock* h : machine_.locks().held()) {
      if (top == nullptr || h->rank_ > top->rank_) {
        top = h;
      }
    }
    if (top != nullptr && rank_ < top->rank_) {
      SIM_PANICF("lock rank violation: acquiring %s (rank %s) while holding %s (rank %s)",
                 name_, LockRankName(rank_), top->name_, LockRankName(top->rank_));
    }
    // Contention charging: if another CPU released this lock at a local time
    // *ahead* of ours, we would have found it held and spun — charge the gap
    // as queueing delay (the holder's remaining hold time from our local
    // "now" to its release). Inert in single-CPU worlds.
    if (machine_.scheduler().smp() && last_owner_cpu_ != kNoCpu && last_owner_cpu_ != cpu &&
        last_release_ns_ > machine_.clock().now()) {
      const Nanoseconds wait = last_release_ns_ - machine_.clock().now();
      machine_.Charge(CostCat::kLock, wait);
      ++contended_acquires_;
      wait_ns_ += wait;
      ++machine_.stats().lock_contended_acquires;
      machine_.stats().lock_wait_ns += wait;
      if (machine_.tracer().enabled()) {
        machine_.tracer().Instant(CostCat::kLock, "contended", machine_.clock().now());
      }
    }
    const Nanoseconds ns = AcquireNs(extra_ns);
    if (ns > 0) {
      ChargeAcquire(ns);
    }
    held_ = true;
    owner_cpu_ = cpu;
    acquired_at_ = machine_.clock().now();
    ++acquisitions_;
    ++machine_.stats().lock_acquisitions;
    if (rank_ == LockRank::kMap) {
      // Legacy counters predate SimLock and are printed by ReportStats;
      // every map-rank lock mirrors into them so output stays identical.
      ++machine_.stats().map_lock_acquisitions;
    }
    machine_.locks().PushHeld(this);
  }

  void Release() SIM_RELEASE() {
    SIM_ASSERT_MSG(held_, "release of a lock that is not held");
    const Nanoseconds delta = machine_.clock().now() - acquired_at_;
    hold_ns_ += delta;
    machine_.stats().lock_hold_ns += delta;
    if (rank_ == LockRank::kMap) {
      machine_.stats().map_lock_hold_ns += delta;
    }
    held_ = false;
    // Remember the release point for the contention model: a later acquire
    // by a CPU whose local clock is still behind this release is charged
    // the difference as queueing delay.
    last_release_ns_ = machine_.clock().now();
    last_owner_cpu_ = owner_cpu_;
    machine_.locks().PopHeld(this);
  }

  // `n` back-to-back Acquire(extra_ns)/Release() round trips with nothing
  // charged while held: the same clock, CostBreakdown, Stats, per-lock
  // counters and trace instants as `n` empty LockGuard scopes, and the same
  // panics. Only the first round trip can be contended, so it is a real
  // one; after it this CPU is the lock's last owner, and CPUs switch only
  // at operation boundaries, so each of the other n - 1 is just its charge
  // and trace instant, with the counters bumped once for all of them.
  void RoundTrips(std::uint64_t n, Nanoseconds extra_ns = 0) {
    if (n == 0) {
      return;
    }
    Acquire(extra_ns);
    Release();
    const std::uint64_t rest = n - 1;
    const Nanoseconds ns = AcquireNs(extra_ns);
    if (ns > 0) {
      for (std::uint64_t i = 0; i < rest; ++i) {
        ChargeAcquire(ns);
      }
    }
    acquisitions_ += rest;
    machine_.stats().lock_acquisitions += rest;
    if (rank_ == LockRank::kMap) {
      machine_.stats().map_lock_acquisitions += rest;
    }
    last_release_ns_ = machine_.clock().now();
  }

  bool IsHeld() const { return held_; }
  const char* name() const { return name_; }
  LockRank rank() const { return rank_; }
  std::uint64_t acquisitions() const { return acquisitions_; }
  Nanoseconds hold_ns() const { return hold_ns_; }
  std::uint64_t contended_acquires() const { return contended_acquires_; }
  Nanoseconds wait_ns() const { return wait_ns_; }

 private:
  static constexpr std::size_t kNoCpu = static_cast<std::size_t>(-1);

  Nanoseconds AcquireNs(Nanoseconds extra_ns) const {
    return (acquire_ns_ != nullptr ? *acquire_ns_ : 0) + extra_ns;
  }
  CostCat ChargeCat() const {
    return attribution_ == Attribution::kContext ? machine_.cost_context() : CostCat::kLock;
  }
  // One acquire's charge, then its trace instant stamped after it.
  void ChargeAcquire(Nanoseconds ns) {
    machine_.Charge(ChargeCat(), ns);
    if (machine_.tracer().enabled()) {
      // Instant (not span) events: a lock may legally be released after an
      // enclosing ChargeScope closes, which would mis-nest span pairs.
      machine_.tracer().Instant(CostCat::kLock, name_, machine_.clock().now());
    }
  }

  Machine& machine_;
  const char* name_;
  LockRank rank_;
  const Nanoseconds* acquire_ns_;
  Attribution attribution_;
  bool held_ = false;
  Nanoseconds acquired_at_ = 0;
  std::uint64_t acquisitions_ = 0;
  Nanoseconds hold_ns_ = 0;
  // SMP contention state (DESIGN.md §16); inert on a single CPU.
  std::size_t owner_cpu_ = kNoCpu;       // valid while held_
  std::size_t last_owner_cpu_ = kNoCpu;  // CPU of the most recent release
  Nanoseconds last_release_ns_ = 0;      // its local release time
  std::uint64_t contended_acquires_ = 0;
  Nanoseconds wait_ns_ = 0;
};

// RAII guard: the preferred acquire form (simlint rule
// `unbalanced-lock-scope` flags bare Acquire()/Lock() calls without a
// paired release in the same function).
class SIM_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(SimLock& lock, Nanoseconds extra_ns = 0) SIM_ACQUIRE(lock) : lock_(lock) {
    lock_.Acquire(extra_ns);
  }
  ~LockGuard() SIM_RELEASE() { lock_.Release(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  SimLock& lock_;
};

// A witness that a particular lock is held *right now*: constructed only
// from a held lock, passed by value to functions whose contract requires
// the caller to hold it (e.g. PhysMem::FrameIsCurrent wants the page-queue
// lock). Purely an asserted capability token — it neither acquires nor
// releases anything.
class LockToken {
 public:
  explicit LockToken(const SimLock& lock) SIM_REQUIRES(lock) : lock_(&lock) {
    SIM_ASSERT_MSG(lock.IsHeld(), "LockToken over a lock that is not held");
  }
  const SimLock& lock() const { return *lock_; }

 private:
  const SimLock* lock_;
};

// Merged per-lock-class table: retired totals plus every live lock's
// current counters, in first-registration order (deterministic).
inline std::vector<LockClassTotals> LockTable(const LockRegistry& registry) {
  std::vector<LockClassTotals> table = registry.retired();
  for (const SimLock* l : registry.locks()) {
    for (LockClassTotals& t : table) {
      if (std::strcmp(t.name, l->name()) == 0) {
        t.acquisitions += l->acquisitions();
        t.hold_ns += l->hold_ns();
        t.contended_acquires += l->contended_acquires();
        t.wait_ns += l->wait_ns();
        break;
      }
    }
  }
  return table;
}

}  // namespace sim

#endif  // SRC_SIM_LOCK_H_
