// sim::Scheduler — deterministic SMP over the virtual clock (DESIGN.md §16).
//
// N virtual CPUs are multiplexed over the one shared sim::Clock: each CPU
// owns a *local* virtual time, and a context switch saves the clock into the
// outgoing CPU's slot and restores the incoming CPU's. Between switches all
// charges land on the current CPU's local clock, so per-CPU timelines
// advance independently and the makespan (the max over local clocks, see
// Join()) is the parallel completion time. Switches happen only at kernel
// operation boundaries — quiescent points where the switching CPU holds no
// locks — which is what keeps a backwards clock jump safe: no ClockSpan or
// lock hold interval ever straddles a switch on the same CPU.
//
// The schedule itself is seeded round-robin with short random bursts (1–3
// turns per CPU from the scheduler's own Rng stream, independent of every
// workload stream), so a given seed replays the identical interleaving on
// every run: multi-CPU worlds are exactly as byte-reproducible as
// single-CPU ones.
//
// Beyond the default, the chaos engine (DESIGN.md §17) installs *schedule
// strategies* via SetStrategy: uniform-random turn picking, random bursts,
// PCT-style priority scheduling with k preemption points, and a
// preemption-bounded sweep step. Every strategy draws only from the
// scheduler's own seeded stream (never the workload streams), so fuzzed
// schedules replay byte-identically from (strategy, seed) alone.
//
// With ncpus == 1 (the default) the scheduler is inert: SwitchTo is the
// identity, NextTurnCpu returns 0 without consuming randomness, and Join
// has nothing to barrier — single-CPU worlds are byte-identical to the
// pre-scheduler era by construction.
//
// Direct state mutation (SwitchTo / Clock::SetNow / SetCurrentCpu) outside
// src/sim/ is forbidden by simlint rule `scheduler-raw-switch`; kernel code
// switches only via the CpuScope RAII below (escape hatch
// SIM_SCHED_SWITCH_OK for tests that deliberately drive the scheduler).
#ifndef SRC_SIM_SCHEDULER_H_
#define SRC_SIM_SCHEDULER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/sim/assert.h"
#include "src/sim/clock.h"
#include "src/sim/lock_registry.h"
#include "src/sim/rng.h"
#include "src/sim/types.h"

namespace sim {

// Which schedule strategy NextTurnCpu plays (DESIGN.md §17). The default is
// the PR 9 seeded round-robin-with-bursts; every other strategy exists for
// schedule fuzzing and is armed explicitly (--sched=... in the bench CLIs).
enum class SchedStrategy : std::uint8_t {
  kRoundRobin = 0,  // round-robin, 1-3 turn bursts (the inert default)
  kRandom,          // uniform-random CPU every turn
  kRandomBurst,     // random CPU, random 1-8 turn burst
  kPct,             // PCT-style: random priorities, k preemption points
  kPreemptBound,    // fixed bound b: switch every b turns, zero randomness
};

// A parsed --sched=STRAT[PARAM][:SEED] spec (grammar + parser in
// src/sim/chaos.h). `param` is k for kPct and the bound for kPreemptBound;
// 0 picks the strategy default. `seed` 0 means "inherit the workload seed".
struct SchedSpec {
  SchedStrategy strat = SchedStrategy::kRoundRobin;
  std::uint64_t param = 0;
  std::uint64_t seed = 0;

  bool operator==(const SchedSpec&) const = default;
};

class Scheduler {
 public:
  Scheduler(Clock& clock, LockRegistry& locks) : clock_(clock), locks_(locks) {}

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Bring `ncpus` virtual CPUs online, all synchronized at the current
  // virtual time, with a seeded schedule. Reconfiguring mid-run is legal at
  // any quiescent point (no locks held); the fleet engine configures once
  // per workload.
  void Configure(std::size_t ncpus, std::uint64_t seed) {
    SIM_ASSERT_MSG(ncpus >= 1 && ncpus <= kMaxCpus, "Scheduler: cpu count out of range");
    SIM_ASSERT_MSG(locks_.NoLocksHeldAnywhere(), "Scheduler: reconfigure with locks held");
    slots_.assign(ncpus, clock_.now());
    current_ = 0;
    locks_.SetCurrentCpu(0, ncpus);
    rng_ = Rng(seed ^ kScheduleStream);
    turn_ = 0;
    burst_left_ = 0;
    strat_ = SchedStrategy::kRoundRobin;
    param_ = 0;
    pct_order_.clear();
    pct_points_.clear();
    pct_next_ = 0;
    pct_turns_ = 0;
  }

  // Install a schedule strategy (chaos engine, DESIGN.md §17). Legal at any
  // quiescent point; restarts the schedule stream from `spec.seed` (a seed
  // of 0 here is literal — resolve "inherit" before calling). Installing
  // {kRoundRobin, 0, s} after Configure(n, s) reproduces Configure's state
  // exactly, so the default strategy stays byte-identical by construction.
  void SetStrategy(const SchedSpec& spec) {
    SIM_ASSERT_MSG(locks_.NoLocksHeldAnywhere(), "Scheduler: strategy change with locks held");
    rng_ = Rng(spec.seed ^ kScheduleStream);
    turn_ = 0;
    burst_left_ = 0;
    strat_ = spec.strat;
    param_ = spec.param;
    pct_order_.clear();
    pct_points_.clear();
    pct_next_ = 0;
    pct_turns_ = 0;
    if (strat_ == SchedStrategy::kPct && smp()) {
      // Random priority order (front = highest) via Fisher-Yates from the
      // schedule stream, then k preemption points over a fixed horizon of
      // operation boundaries, sorted ascending. At each point the running
      // (highest-priority) CPU is demoted below everyone — classic PCT,
      // with kernel-op boundaries as the preemption granularity.
      for (std::size_t cpu = 0; cpu < slots_.size(); ++cpu) {
        pct_order_.push_back(cpu);
      }
      for (std::size_t i = pct_order_.size() - 1; i > 0; --i) {
        const std::size_t j = static_cast<std::size_t>(rng_.Below(i + 1));
        const std::size_t tmp = pct_order_[i];
        pct_order_[i] = pct_order_[j];
        pct_order_[j] = tmp;
      }
      const std::uint64_t k = param_ != 0 ? param_ : kPctDefaultPoints;
      for (std::uint64_t i = 0; i < k; ++i) {
        pct_points_.push_back(1 + rng_.Below(kPctHorizon));
      }
      std::sort(pct_points_.begin(), pct_points_.end());
    }
  }

  std::size_t ncpus() const { return slots_.size(); }
  bool smp() const { return slots_.size() > 1; }
  std::size_t current() const { return current_; }
  std::uint64_t switches() const { return switches_; }

  // A CPU's local virtual time (the shared clock if it is running now).
  Nanoseconds local_now(std::size_t cpu) const {
    SIM_ASSERT(cpu < slots_.size());
    return cpu == current_ ? clock_.now() : slots_[cpu];
  }

  // Context switch: save the shared clock into the outgoing CPU's slot,
  // restore the incoming CPU's. The incoming CPU may be *behind* the
  // outgoing one — local clocks are independent; only lock hand-offs
  // (contention charging in SimLock::Acquire) order them against each other.
  void SwitchTo(std::size_t cpu) {
    SIM_ASSERT_MSG(cpu < slots_.size(), "SwitchTo: no such cpu");
    if (cpu == current_) {
      return;
    }
    slots_[current_] = clock_.now();
    current_ = cpu;
    clock_.SetNow(slots_[cpu]);
    locks_.SetCurrentCpu(cpu, slots_.size());
    ++switches_;
  }

  // The next CPU to run one workload turn, per the installed strategy.
  // Single-CPU worlds return 0 without touching the Rng regardless of
  // strategy, so paper benches stay byte-identical under any --sched.
  std::size_t NextTurnCpu() {
    if (!smp()) {
      return 0;
    }
    switch (strat_) {
      case SchedStrategy::kRoundRobin:
        // The PR 9 default: round-robin with a 1-3 turn burst per CPU.
        if (burst_left_ == 0) {
          turn_ = (turn_ + 1) % slots_.size();
          burst_left_ = 1 + static_cast<std::size_t>(rng_.Below(3));
        }
        --burst_left_;
        return turn_;
      case SchedStrategy::kRandom:
        turn_ = static_cast<std::size_t>(rng_.Below(slots_.size()));
        return turn_;
      case SchedStrategy::kRandomBurst:
        if (burst_left_ == 0) {
          turn_ = static_cast<std::size_t>(rng_.Below(slots_.size()));
          burst_left_ = 1 + static_cast<std::size_t>(rng_.Below(8));
        }
        --burst_left_;
        return turn_;
      case SchedStrategy::kPct:
        ++pct_turns_;
        while (pct_next_ < pct_points_.size() && pct_turns_ >= pct_points_[pct_next_]) {
          // Preemption point: demote the running CPU below every other.
          ++pct_next_;
          const std::size_t demoted = pct_order_.front();
          pct_order_.erase(pct_order_.begin());
          pct_order_.push_back(demoted);
        }
        turn_ = pct_order_.front();
        return turn_;
      case SchedStrategy::kPreemptBound:
        // Deterministic sweep step: exactly `param` turns per CPU, then the
        // next CPU — no randomness, so a bound sweep enumerates schedules.
        if (burst_left_ == 0) {
          turn_ = (turn_ + 1) % slots_.size();
          burst_left_ = static_cast<std::size_t>(param_ != 0 ? param_ : kPreemptBoundDefault);
        }
        --burst_left_;
        return turn_;
    }
    return 0;  // unreachable: every enumerator returns above
  }

  // The parallel completion time: max over all local clocks.
  Nanoseconds makespan() const {
    Nanoseconds m = clock_.now();
    for (std::size_t cpu = 0; cpu < slots_.size(); ++cpu) {
      if (local_now(cpu) > m) {
        m = local_now(cpu);
      }
    }
    return m;
  }

  // Barrier: every CPU (and the shared clock) advances to the makespan, as
  // if each idle CPU spun until the last one finished. After Join the
  // world's virtual time reads as the parallel completion time.
  void Join() {
    const Nanoseconds m = makespan();
    slots_.assign(slots_.size(), m);
    clock_.SetNow(m);
  }

 private:
  static constexpr std::size_t kMaxCpus = 64;
  // Decorrelates the schedule stream from workload streams seeded with the
  // same user seed (splitmix64 golden gamma).
  static constexpr std::uint64_t kScheduleStream = 0x9e3779b97f4a7c15ull;
  // PCT defaults: preemption points drawn over a fixed horizon of kernel-op
  // boundaries. Past the horizon the priority order is frozen — extreme
  // starvation tails are exactly what PCT exists to explore.
  static constexpr std::uint64_t kPctDefaultPoints = 3;
  static constexpr std::uint64_t kPctHorizon = 4096;
  static constexpr std::uint64_t kPreemptBoundDefault = 4;

  Clock& clock_;
  LockRegistry& locks_;
  // Local clocks, one per CPU; [current_] is stale while that CPU runs.
  // (Parenthesized count-value form: a braced {1, 0} would be a 2-element
  // initializer list and a fresh Machine would claim two CPUs.)
  std::vector<Nanoseconds> slots_ = std::vector<Nanoseconds>(1, Nanoseconds{0});
  std::size_t current_ = 0;
  std::uint64_t switches_ = 0;
  Rng rng_{0};
  std::size_t turn_ = 0;        // round-robin position / last-picked CPU
  std::size_t burst_left_ = 0;  // turns left in the current burst
  SchedStrategy strat_ = SchedStrategy::kRoundRobin;
  std::uint64_t param_ = 0;  // k (kPct) / bound (kPreemptBound); 0 = default
  // PCT state: priority order (front runs), preemption points, turn count.
  std::vector<std::size_t> pct_order_;
  std::vector<std::uint64_t> pct_points_;
  std::size_t pct_next_ = 0;
  std::uint64_t pct_turns_ = 0;
};

// RAII processor affinity: run the enclosed kernel operation on `cpu`,
// then switch back. Entered at operation boundaries only (no locks held on
// the way in or out — the rank validator's held stack is per-CPU, so a
// violation panics deterministically). In single-CPU worlds both switches
// are the identity and the only cost is one branch.
class CpuScope {
 public:
  CpuScope(Scheduler& scheduler, std::size_t cpu)
      : scheduler_(scheduler), prev_(scheduler.current()) {
    if (scheduler_.smp()) {
      scheduler_.SwitchTo(cpu);
    }
  }

  CpuScope(const CpuScope&) = delete;
  CpuScope& operator=(const CpuScope&) = delete;

  ~CpuScope() {
    if (scheduler_.smp()) {
      scheduler_.SwitchTo(prev_);
    }
  }

 private:
  Scheduler& scheduler_;
  std::size_t prev_;
};

}  // namespace sim

#endif  // SRC_SIM_SCHEDULER_H_
