#include "src/kern/fleet.h"

#include <string>

#include "src/kern/workloads.h"
#include "src/sim/assert.h"
#include "src/vfs/filesystem.h"

namespace kern {

namespace {

// Fixed per-worker layout: a persistent heap low, request-scratch slots in
// the middle, transient file windows high. Fixed addresses keep the kernel
// call sequence (and therefore virtual time) independent of allocator
// placement decisions.
constexpr sim::Vaddr kHeapBase = 0x6000'0000;
constexpr sim::Vaddr kScratchBase = 0x6400'0000;
constexpr sim::Vaddr kFileBase = 0x6800'0000;
constexpr sim::Vaddr kGuardPages = 4;
constexpr std::size_t kHeapPages = 32;    // per-worker persistent heap (COW source)
constexpr std::size_t kScratchSlots = 8;  // per-worker request-arena slots
constexpr std::size_t kScratchPages = 16;
constexpr std::size_t kCacheFiles = 24;  // rotating file working set
constexpr std::size_t kFilePages = 16;
// The one shared-storm mapping (config.shared_storm): every worker maps the
// same file at the same fixed address, so all CPUs fault into one map/object.
constexpr sim::Vaddr kSharedBase = 0x7000'0000;
constexpr std::size_t kSharedPages = 64;
constexpr const char* kSharedFileName = "fleet/shared";

std::string CacheFileName(std::size_t i) { return "fleet/cache" + std::to_string(i); }

}  // namespace

FleetWorkload::FleetWorkload(Kernel& kernel, const FleetConfig& config)
    : kernel_(kernel), config_(config) {
  SIM_ASSERT(config_.workers > 0);
  SIM_ASSERT_MSG(config_.cpus >= 1 && config_.cpus <= config_.workers,
                 "fleet: cpus must be in [1, workers] so every cpu has a worker");
  for (std::size_t i = 0; i < kCacheFiles; ++i) {
    kernel_.fs().CreateFilePattern(CacheFileName(i), kFilePages * sim::kPageSize);
  }
  if (config_.shared_storm) {
    kernel_.fs().CreateFilePattern(kSharedFileName, kSharedPages * sim::kPageSize);
  }
  workers_.resize(config_.workers);
  cpu_workers_.resize(config_.cpus);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_[i].cpu = i % config_.cpus;
    cpu_workers_[workers_[i].cpu].push_back(i);
  }
  // Per-CPU decision streams: stream c is seeded seed + c*gamma (the
  // splitmix64 stream-split construction), so stream 0 is the single-CPU
  // stream and higher streams are decorrelated from it.
  for (std::size_t c = 0; c < config_.cpus; ++c) {
    rngs_.emplace_back(config_.seed + 0x9e3779b97f4a7c15ull * c);
  }
  kernel_.machine().scheduler().Configure(config_.cpus, config_.seed);
  // Schedule fuzzing (DESIGN.md §17): a non-default spec replaces the
  // seeded round-robin Configure() installed. Spec seed 0 inherits the
  // workload seed, so "--sched=pct3" alone is fully determined by --seed.
  if (!(config_.sched == sim::SchedSpec{})) {
    sim::SchedSpec spec = config_.sched;
    if (spec.seed == 0) {
      spec.seed = config_.seed;
    }
    kernel_.machine().scheduler().SetStrategy(spec);
  }
}

bool FleetWorkload::Op(int err) {
  ++counters_.ops;
  if (err == sim::kOk) {
    return true;
  }
  ++counters_.soft_errors;
  return false;
}

sim::Vaddr FleetWorkload::SlotBase(std::size_t slot) const {
  return kScratchBase + slot * (kScratchPages + kGuardPages) * sim::kPageSize;
}

void FleetWorkload::SpawnWorker(Worker& w) {
  w.proc = kernel_.Spawn(w.cpu);
  w.heap = kHeapBase;
  w.slot_mapped.assign(kScratchSlots, false);
  w.shared_mapped = false;  // a respawned worker remaps the storm target
  ++counters_.ops;  // spawn
  MapAttrs attrs;
  if (Op(kernel_.MmapAnon(w.proc, &w.heap, kHeapPages * sim::kPageSize, attrs))) {
    // Dirty the low half so later forks have COW state to copy.
    for (std::size_t pg = 0; pg < kHeapPages / 2; ++pg) {
      Op(kernel_.TouchWrite(w.proc, w.heap + pg * sim::kPageSize, 1, std::byte{0x5f}));
    }
  }
}

void FleetWorkload::ReleaseWorker(Worker& w) {
  if (w.proc != nullptr) {
    kernel_.Exit(w.proc);  // reaps the zombie shell if the worker was killed
    ++counters_.ops;
    w.proc = nullptr;
  }
}

FleetWorkload::Worker& FleetWorkload::PickWorker(std::size_t cpu, sim::Rng& rng) {
  const std::vector<std::size_t>& mine = cpu_workers_[cpu];
  Worker& w = workers_[mine[rng.Below(mine.size())]];
  if (w.proc == nullptr) {
    SpawnWorker(w);
  } else if (!w.proc->alive) {
    // Killed by the out-of-swap or poison policy: reap and replace. The
    // fleet keeps serving on the remaining capacity either way.
    ReleaseWorker(w);
    SpawnWorker(w);
    ++counters_.workers_respawned;
  }
  return w;
}

// One request: map a scratch arena, build the response in it (page-by-page
// writes), consult a few hot heap pages, then tear the arena down. Roughly
// what a forked server worker does per connection.
void FleetWorkload::RequestBurst(Worker& w, sim::Rng& rng) {
  const std::size_t slot = rng.Below(kScratchSlots);
  sim::Vaddr base = SlotBase(slot);
  const std::uint64_t bytes = kScratchPages * sim::kPageSize;
  if (w.slot_mapped[slot]) {
    w.slot_mapped[slot] = false;
    if (!Op(kernel_.Munmap(w.proc, base, bytes))) {
      return;
    }
  }
  MapAttrs attrs;
  if (!Op(kernel_.MmapAnon(w.proc, &base, bytes, attrs))) {
    return;
  }
  w.slot_mapped[slot] = true;
  const std::size_t touched = rng.Range(2, kScratchPages);
  for (std::size_t pg = 0; pg < touched; ++pg) {
    if (!Op(kernel_.TouchWrite(w.proc, base + pg * sim::kPageSize, 1, std::byte{0xa7}))) {
      break;
    }
  }
  for (int i = 0; i < 3; ++i) {
    sim::Vaddr hot = w.heap + rng.Below(kHeapPages / 2) * sim::kPageSize;
    Op(kernel_.TouchRead(w.proc, hot, 1));
  }
  // Most requests release the arena immediately; a few keep it mapped so
  // the address space stays fragmented like a long-lived server's.
  if (!rng.Chance(1, 8)) {
    w.slot_mapped[slot] = false;
    Op(kernel_.Munmap(w.proc, base, bytes));
  }
  ++counters_.requests;
}

// One cache cycle: map a file from the rotating working set, scan part of
// it, occasionally write it back, unmap. With more files than cached
// vnodes this recycles vnodes and their object/pager metadata every cycle.
void FleetWorkload::CacheChurn(Worker& w, sim::Rng& rng) {
  const std::size_t file = rng.Below(kCacheFiles);
  sim::Vaddr base = kFileBase;
  const std::uint64_t bytes = kFilePages * sim::kPageSize;
  MapAttrs attrs;
  if (!Op(kernel_.Mmap(w.proc, &base, bytes, CacheFileName(file), 0, attrs))) {
    return;
  }
  const std::size_t scanned = rng.Range(1, kFilePages);
  for (std::size_t pg = 0; pg < scanned; ++pg) {
    if (!Op(kernel_.TouchRead(w.proc, base + pg * sim::kPageSize, 1))) {
      break;
    }
  }
  if (rng.Chance(1, 4)) {
    Op(kernel_.TouchWrite(w.proc, base, 1, std::byte{0xc3}));
    Op(kernel_.Msync(w.proc, base, sim::kPageSize));
  }
  Op(kernel_.Munmap(w.proc, base, bytes));
  ++counters_.churns;
}

// One build job: fork the worker, let the child dirty COW heap pages,
// occasionally exec a fresh image in it, and exit. Fork storms are where
// amap/anon and pv-chain metadata churn hardest.
void FleetWorkload::BuildStorm(Worker& w, sim::Rng& rng) {
  Proc* child = kernel_.Fork(w.proc);
  ++counters_.ops;  // fork
  if (child == nullptr) {
    ++counters_.soft_errors;
    return;
  }
  ++counters_.forks;
  const std::size_t writes = rng.Range(2, kHeapPages / 2);
  for (std::size_t i = 0; i < writes; ++i) {
    sim::Vaddr va = w.heap + rng.Below(kHeapPages / 2) * sim::kPageSize;
    if (!Op(kernel_.TouchWrite(child, va, 1, std::byte{0xb4}))) {
      break;
    }
  }
  if (rng.Chance(1, 6) && child->alive) {
    Exec(kernel_, child, CatImage());
    ++counters_.ops;  // exec (its internal calls are not itemized)
    ++counters_.execs;
  }
  kernel_.Exit(child);
  ++counters_.ops;
  ++counters_.builds;
}

// One storm round: fault a random window of the single shared mapping,
// mapping it first if this worker (or its respawned successor) hasn't yet.
// Every worker on every CPU converges on the same map entry, object, and
// page set — the "parallel fault storm targeting one shared map" of ROADMAP
// item 1, and the natural prey for chaos schedules hunting lock bugs.
void FleetWorkload::SharedStorm(Worker& w, sim::Rng& rng) {
  const std::uint64_t bytes = kSharedPages * sim::kPageSize;
  if (!w.shared_mapped) {
    sim::Vaddr base = kSharedBase;
    MapAttrs attrs;
    attrs.shared = true;
    attrs.fixed = true;
    if (!Op(kernel_.Mmap(w.proc, &base, bytes, kSharedFileName, 0, attrs))) {
      return;
    }
    w.shared_mapped = true;
  }
  const std::size_t touches = rng.Range(4, 12);
  for (std::size_t i = 0; i < touches; ++i) {
    const sim::Vaddr va = kSharedBase + rng.Below(kSharedPages) * sim::kPageSize;
    const bool ok = rng.Chance(1, 3)
                        ? Op(kernel_.TouchWrite(w.proc, va, 1, std::byte{0xee}))
                        : Op(kernel_.TouchRead(w.proc, va, 1));
    if (!ok) {
      break;
    }
  }
  if (rng.Chance(1, 16)) {
    Op(kernel_.Msync(w.proc, kSharedBase, bytes));
  }
  ++counters_.shared_storms;
}

const FleetCounters& FleetWorkload::Run() {
  sim::Scheduler& scheduler = kernel_.machine().scheduler();
  const std::uint64_t budget = counters_.ops + config_.target_ops;
  while (counters_.ops < budget) {
    // The scheduler decides which CPU issues this turn; that CPU's stream
    // makes every decision, so per-CPU sequences are independent of how
    // turns interleave. Single-CPU worlds: cpu 0, the classic stream.
    const std::size_t cpu = scheduler.NextTurnCpu();
    sim::Rng& rng = rngs_[cpu];
    Worker& w = PickWorker(cpu, rng);
    if (w.proc == nullptr || !w.proc->alive) {
      continue;  // spawn itself failed under pressure; retry another worker
    }
    const std::uint64_t pick = rng.Below(100);
    if (config_.shared_storm) {
      // Storm mix: the classic families shrink to make room for a 30%
      // shared-map storm share. Only reachable with the flag set, so the
      // classic mix (and its byte-identical output) is untouched.
      if (pick < 35) {
        RequestBurst(w, rng);
      } else if (pick < 55) {
        CacheChurn(w, rng);
      } else if (pick < 70) {
        BuildStorm(w, rng);
      } else {
        SharedStorm(w, rng);
      }
    } else if (pick < 60) {
      RequestBurst(w, rng);
    } else if (pick < 85) {
      CacheChurn(w, rng);
    } else {
      BuildStorm(w, rng);
    }
  }
  // Barrier: idle CPUs spin up to the slowest one, so the virtual time the
  // bench prints is the parallel completion time (the makespan).
  if (scheduler.smp()) {
    scheduler.Join();
  }
  return counters_;
}

}  // namespace kern
