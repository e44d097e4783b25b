// Server-fleet workload engine: a deterministic, million-op request
// generator modeling the steady-state VM behaviour of a small server fleet.
// Three interleaved scenario families drive the kernel through the paths the
// slab/arena allocation layer (DESIGN.md §14) is meant to accelerate:
//
//   - request bursts: forked worker processes map/touch/unmap short-lived
//     per-request scratch arenas (map-entry and anon churn),
//   - cache churn: memcached-style rotation over a file working set larger
//     than the vnode cache (object/pager metadata churn),
//   - build storms: fork/exec/exit cycles over worker heaps (amap copies,
//     pv-chain setup and teardown, process-resource churn).
//
// With cpus == 1 (the default) all decisions come from one sim::Rng, so a
// given (seed, target_ops) pair issues the identical kernel-call sequence
// on every run and the summary counters — like every virtual-time figure in
// this repo — are byte-stable. With cpus > 1 the workers are partitioned
// across that many virtual CPUs (DESIGN.md §16): each CPU draws from its
// own splitmix64 stream (stream c is seeded seed + c·gamma; stream 0 IS
// the classic single-CPU stream), the sim::Scheduler's seeded round-robin
// decides which CPU issues each turn, and Run() ends with a Join() barrier
// so the reported virtual time is the parallel makespan. Multi-CPU runs are
// exactly as deterministic as single-CPU ones — same seed, same bytes.
// Typed errors (pool exhaustion, out-of-swap kills under --pressure, poison
// kills under --memfault) are absorbed: the fleet backs off, releases what
// it held, respawns dead workers, and keeps serving.
#ifndef SRC_KERN_FLEET_H_
#define SRC_KERN_FLEET_H_

#include <cstdint>
#include <vector>

#include "src/kern/kernel.h"
#include "src/sim/rng.h"
#include "src/sim/scheduler.h"
#include "src/sim/types.h"

namespace kern {

struct FleetConfig {
  std::uint64_t seed = 1;
  std::uint64_t target_ops = 1'000'000;  // kernel calls to issue
  std::size_t workers = 6;
  // Virtual CPUs the workers are partitioned across (worker i runs on CPU
  // i % cpus, forked children inherit it). Must be <= workers so every CPU
  // has at least one worker. 1 = the classic single-CPU world.
  std::size_t cpus = 1;
  // Schedule-fuzzing strategy (DESIGN.md §17). The default (round-robin,
  // seed 0) leaves the scheduler exactly as Configure() set it, so classic
  // runs stay byte-identical; any other spec is installed after Configure
  // (spec.seed == 0 inherits the workload seed).
  sim::SchedSpec sched;
  // Shared-map fault storm (ROADMAP item 1 follow-on): adds a fourth
  // scenario family in which every worker faults pages of ONE shared file
  // mapping, converging all CPUs on the same map/object locks. Off by
  // default — the classic three-way scenario mix is untouched.
  bool shared_storm = false;
};

struct FleetCounters {
  std::uint64_t ops = 0;       // kernel calls issued by the generator
  std::uint64_t requests = 0;  // request bursts served
  std::uint64_t churns = 0;    // cache-file map/scan/unmap cycles
  std::uint64_t builds = 0;    // fork(+exec)/exit build jobs
  std::uint64_t forks = 0;
  std::uint64_t execs = 0;
  std::uint64_t soft_errors = 0;        // typed errors absorbed
  std::uint64_t workers_respawned = 0;  // workers replaced after a kill
  std::uint64_t shared_storms = 0;      // shared-map fault-storm rounds
};

class FleetWorkload {
 public:
  explicit FleetWorkload(Kernel& kernel, const FleetConfig& config = FleetConfig{});

  // Issue kernel calls until the op budget is met; reusable state (workers,
  // cache files) persists across calls. Returns the cumulative counters.
  const FleetCounters& Run();

  const FleetCounters& counters() const { return counters_; }

 private:
  struct Worker {
    Proc* proc = nullptr;
    sim::Vaddr heap = 0;
    std::size_t cpu = 0;            // processor affinity (i % cpus)
    std::vector<bool> slot_mapped;  // scratch arenas currently mapped
    bool shared_mapped = false;     // the one shared storm mapping
  };

  // One kernel call issued (bumps the op budget); true when it succeeded.
  bool Op(int err);
  Worker& PickWorker(std::size_t cpu, sim::Rng& rng);
  void SpawnWorker(Worker& w);
  void ReleaseWorker(Worker& w);

  void RequestBurst(Worker& w, sim::Rng& rng);
  void CacheChurn(Worker& w, sim::Rng& rng);
  void BuildStorm(Worker& w, sim::Rng& rng);
  void SharedStorm(Worker& w, sim::Rng& rng);

  sim::Vaddr SlotBase(std::size_t slot) const;

  Kernel& kernel_;
  FleetConfig config_;
  FleetCounters counters_;
  std::vector<sim::Rng> rngs_;  // one decision stream per CPU
  std::vector<Worker> workers_;
  // Worker indices per CPU: cpu_workers_[c] lists the workers pinned to c.
  std::vector<std::vector<std::size_t>> cpu_workers_;
};

}  // namespace kern

#endif  // SRC_KERN_FLEET_H_
