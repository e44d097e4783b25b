// Server-fleet workload driver: runs kern::FleetWorkload (request bursts,
// vnode-cache churn, fork/exec build storms) on both VM systems at a
// million-kernel-op scale. Everything on stdout is deterministic — virtual
// time, fleet counters, VM stats, and allocation-layer pool totals — so CI
// double-runs (plain and under --pressure) are compared byte-for-byte.
// Host wall time goes to stderr, where the identity check cannot see it.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "bench/bench_common.h"
#include "src/kern/fleet.h"
#include "src/sim/machine.h"
#include "src/sim/pool.h"
#include "src/sim/report.h"

namespace {

using bench::PrintHeader;
using bench::VmKind;
using bench::World;

void RunFleet(VmKind kind, const char* vm_name, const kern::FleetConfig& config,
              bool show_locks) {
  World w(kind);
  bench::TraceRun trace(w, vm_name);
  kern::FleetWorkload fleet(*w.kernel, config);
  // SIM_HOST_TIME_OK: wall time is reported on stderr only, outside the
  // byte-compared deterministic stdout.
  auto t0 = std::chrono::steady_clock::now();
  const kern::FleetCounters& c = fleet.Run();
  auto t1 = std::chrono::steady_clock::now();  // SIM_HOST_TIME_OK: see above

  const sim::Stats& s = w.machine.stats();
  const sim::PoolStats pools = w.machine.pools().Aggregate();
  std::printf("%-6s %9llu %8llu %7llu %7llu %6llu %6llu %8llu %7llu %11.3f %9llu\n", vm_name,
              static_cast<unsigned long long>(c.ops),
              static_cast<unsigned long long>(c.requests),
              static_cast<unsigned long long>(c.churns),
              static_cast<unsigned long long>(c.builds),
              static_cast<unsigned long long>(c.forks),
              static_cast<unsigned long long>(c.execs),
              static_cast<unsigned long long>(c.soft_errors),
              static_cast<unsigned long long>(c.workers_respawned),
              static_cast<double>(w.machine.clock().now()) * 1e-6,
              static_cast<unsigned long long>(s.faults));
  std::printf("       pools: allocs %llu frees %llu refills %llu high_water %llu  "
              "map probes %llu hint hits %llu\n",
              static_cast<unsigned long long>(pools.allocs),
              static_cast<unsigned long long>(pools.frees),
              static_cast<unsigned long long>(pools.slab_refills),
              static_cast<unsigned long long>(pools.high_water),
              static_cast<unsigned long long>(s.map_lookup_probes),
              static_cast<unsigned long long>(s.map_hint_hits));
  if (config.shared_storm) {
    // Extra line only in storm mode: the default table — the byte-compared
    // CI artifact — is unchanged.
    std::printf("       shared: storms %llu\n",
                static_cast<unsigned long long>(c.shared_storms));
  }
  if (show_locks) {
    // Per-lock attribution (DESIGN.md §15). Opt-in so the default stdout —
    // the byte-compared CI artifact — is unchanged; the table itself is
    // deterministic and double-run identical too.
    std::ostringstream locks;
    sim::ReportLockTable(locks, w.machine);
    std::fputs(locks.str().c_str(), stdout);
  }
  std::fprintf(stderr, "[host] %s fleet: %.1f ms\n", vm_name,
               std::chrono::duration<double, std::milli>(t1 - t0).count());
}

}  // namespace

int main(int argc, char** argv) {
  bench::Init(argc, argv);
  kern::FleetConfig config;
  bench::ArgSession& args = bench::ArgSession::Get();
  if (const char* v = args.ConsumeValue("--ops=")) {
    config.target_ops = bench::ParseUint64("--ops", v);
  }
  if (const char* v = args.ConsumeValue("--seed=")) {
    config.seed = bench::ParseUint64("--seed", v);
  }
  if (const char* v = args.ConsumeValue("--cpus=")) {
    config.cpus = static_cast<std::size_t>(bench::ParseUint64("--cpus", v));
    if (config.cpus < 1 || config.cpus > 64) {
      std::fprintf(stderr, "bench_fleet: --cpus must be in [1, 64], got %zu\n", config.cpus);
      return 2;
    }
  }
  const bool show_locks = args.ConsumeFlag("--locks");
  config.shared_storm = args.ConsumeFlag("--shared");
  bench::RejectUnknownArgs();
  // Every CPU needs at least one worker; scale the fleet up for wide runs.
  if (config.workers < config.cpus) {
    config.workers = config.cpus;
  }
  config.sched = bench::PlanSession::Get().sched;

  PrintHeader("Server-fleet workload engine (deterministic; host time on stderr)");
  std::printf("%llu kernel ops per VM, %zu workers, seed %llu\n",
              static_cast<unsigned long long>(config.target_ops), config.workers,
              static_cast<unsigned long long>(config.seed));
  if (config.cpus > 1) {
    // Only multi-CPU worlds print the extra line: the default (single-CPU)
    // stdout is byte-compared against the pre-SMP era in CI. The legacy
    // wording is kept verbatim for the default round-robin schedule.
    if (config.sched == sim::SchedSpec{}) {
      std::printf("%zu virtual cpus, seeded round-robin schedule\n", config.cpus);
    } else {
      std::printf("%zu virtual cpus, %s schedule\n", config.cpus,
                  sim::FormatSchedSpec(config.sched).c_str());
    }
  } else if (!(config.sched == sim::SchedSpec{})) {
    std::printf("1 virtual cpu, %s schedule\n", sim::FormatSchedSpec(config.sched).c_str());
  }
  if (config.shared_storm) {
    std::printf("shared-map fault storm: %zu workers converge on one mapping\n",
                config.workers);
  }
  std::printf("\n");
  std::printf("%-6s %9s %8s %7s %7s %6s %6s %8s %7s %11s %9s\n", "vm", "ops", "requests",
              "churns", "builds", "forks", "execs", "soft_err", "respawn", "vtime_ms",
              "faults");
  RunFleet(VmKind::kUvm, "uvm", config, show_locks);
  RunFleet(VmKind::kBsd, "bsdvm", config, show_locks);
  return 0;
}
