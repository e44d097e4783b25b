// Aggregates the simulated hardware context shared by every subsystem:
// virtual clock, cost model, global statistics counters, and the tracing /
// cost-attribution layer. A Machine is created once per experiment and
// passed by reference; there are no globals.
#ifndef SRC_SIM_MACHINE_H_
#define SRC_SIM_MACHINE_H_

#include <array>

#include "src/sim/assert.h"
#include "src/sim/audit.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/fault.h"
#include "src/sim/lock_registry.h"
#include "src/sim/pool.h"
#include "src/sim/pressure.h"
#include "src/sim/scheduler.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"

namespace sim {

class Machine {
 public:
  Machine() = default;

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  Clock& clock() { return clock_; }
  const Clock& clock() const { return clock_; }
  const CostModel& cost() const { return cost_; }
  Stats& stats() { return stats_; }
  const Stats& stats() const { return stats_; }
  FaultInjector& faults() { return faults_; }
  const FaultInjector& faults() const { return faults_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  PressureEngine& pressure() { return pressure_; }
  const PressureEngine& pressure() const { return pressure_; }
  Auditor& auditor() { return auditor_; }
  const Auditor& auditor() const { return auditor_; }
  // The one slab pool every pooled structure of this machine comes from.
  PoolResource& pools() { return pools_; }
  const PoolResource& pools() const { return pools_; }
  LockRegistry& locks() { return locks_; }
  const LockRegistry& locks() const { return locks_; }
  Scheduler& scheduler() { return scheduler_; }
  const Scheduler& scheduler() const { return scheduler_; }
  const CostBreakdown& breakdown() const { return breakdown_; }
  CostBreakdown& breakdown() { return breakdown_; }

  // The innermost enclosing ChargeScope's category (kOther outside any).
  CostCat cost_context() const { return cat_stack_[cat_depth_]; }

  // Advance the clock by a cost-model amount, attributing it to the
  // current scope's category.
  void Charge(Nanoseconds ns) {
    clock_.Advance(ns);
    breakdown_.Add(cost_context(), ns);
  }

  // Apply any pressure-plan and memory-fault-plan events whose virtual
  // time has come. Called from pool allocation paths; inert (two branches)
  // without plans.
  void PollPressure() {
    pressure_.Poll(clock_.now(), stats_, tracer_);
    faults_.PollMem(clock_.now(), stats_, tracer_);
  }

  // Run a periodic audit if one is armed and due. Called from the kernel's
  // operation boundaries — quiescent points where no layer is mid-mutation;
  // inert (one branch) when disarmed.
  void PollAudit() { auditor_.Poll(clock_.now(), tracer_); }

  // Leaf-mechanism charge: attribute to `cat` regardless of the enclosing
  // scope (pmap updates, page copies, lock round-trips keep their own
  // category even when charged from inside a fault or pageout scope).
  void Charge(CostCat cat, Nanoseconds ns) {
    clock_.Advance(ns);
    breakdown_.Add(cat, ns);
  }

 private:
  friend class ChargeScope;
  static constexpr std::size_t kMaxCostScopeDepth = 32;

  void PushCat(CostCat cat) {
    SIM_ASSERT_MSG(cat_depth_ + 1 < kMaxCostScopeDepth, "ChargeScope nesting too deep");
    cat_stack_[++cat_depth_] = cat;
  }
  void PopCat() {
    SIM_ASSERT(cat_depth_ > 0);
    --cat_depth_;
  }

  Clock clock_;
  CostModel cost_;
  Stats stats_;
  // Every layer built on this machine returns its blocks before the machine
  // dies; a block still live here trips the pool's leak assert.
  PoolResource pools_;
  // Non-owning: every sim::SimLock registers here and must be destroyed
  // (unheld) before the machine.
  LockRegistry locks_;
  // Declared after the clock and lock registry it multiplexes. Inert
  // (single-CPU) unless Configure(ncpus > 1, seed) is called.
  Scheduler scheduler_{clock_, locks_};
  FaultInjector faults_;
  PressureEngine pressure_;
  Auditor auditor_;
  Tracer tracer_;
  CostBreakdown breakdown_;
  std::array<CostCat, kMaxCostScopeDepth> cat_stack_{CostCat::kOther};
  std::size_t cat_depth_ = 0;
};

// RAII cost-attribution scope. Pushes `cat` onto the machine's category
// stack (innermost scope wins for plain Charge calls) and, when tracing is
// enabled, brackets the scope with span begin/end events stamped with
// virtual time. With tracing disabled the only work is the stack push/pop,
// and in neither case does the clock, Stats, or anything else the
// simulation observes change: tracing is observer-effect-free.
class ChargeScope {
 public:
  ChargeScope(Machine& machine, CostCat cat, const char* name)
      : machine_(machine), cat_(cat), name_(name) {
    machine_.PushCat(cat_);
    if (machine_.tracer().enabled()) {
      machine_.tracer().SpanBegin(cat_, name_, machine_.clock().now());
    }
  }

  ChargeScope(const ChargeScope&) = delete;
  ChargeScope& operator=(const ChargeScope&) = delete;

  ~ChargeScope() {
    if (machine_.tracer().enabled()) {
      machine_.tracer().SpanEnd(cat_, name_, machine_.clock().now());
    }
    machine_.PopCat();
  }

 private:
  Machine& machine_;
  CostCat cat_;
  const char* name_;
};

}  // namespace sim

#endif  // SRC_SIM_MACHINE_H_
