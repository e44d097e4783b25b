// Chaos driver (DESIGN.md §17): runs the fleet workload under a composed
// fault storm and a fuzzed schedule, on both VM systems, and owns the
// repro/shrink UX:
//
//   bench_chaos [--ops=N] [--cpus=N] [--workers=N] [--seed=N]
//               [--vm=uvm|bsd|both] [--shared] [--sched=SPEC] [--chaos=SPEC]
//     run the scenario and print a deterministic survival summary. With no
//     --chaos a standard storm is armed (bench_chaos exists to storm); all
//     stdout is double-run byte-identical.
//
//   bench_chaos --repro=STR
//     replay a failure from the repro string any panic prints on stderr.
//
//   bench_chaos --shrink ...scenario flags...
//     re-run THIS binary as a subprocess per probe, greedily shrinking the
//     failing scenario to a minimal one, and print its repro string.
//
//   bench_chaos --shrink-demo
//     exercise the shrinker in-process against a synthetic failure
//     predicate — a deterministic, subprocess-free demonstration CI can
//     byte-compare.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/kern/fleet.h"
#include "src/sim/chaos.h"
#include "src/sim/machine.h"

namespace {

using bench::PrintHeader;
using bench::VmKind;
using bench::World;

constexpr const char* kDefaultStorm = "io=4,pressure=2,poison=1:seed=1:span=40ms";

// The scenario as a CLI argument vector — the exchange format between the
// shrinker and the subprocess runs, and the payload of the repro string.
std::vector<std::string> ScenarioArgv(const sim::ChaosScenario& sc, const std::string& vm) {
  std::vector<std::string> argv;
  argv.push_back("--ops=" + std::to_string(sc.ops));
  argv.push_back("--cpus=" + std::to_string(sc.cpus));
  if (sc.workers != 0) {
    argv.push_back("--workers=" + std::to_string(sc.workers));
  }
  argv.push_back("--seed=" + std::to_string(sc.seed));
  argv.push_back("--vm=" + vm);
  if (sc.shared_storm) {
    argv.push_back("--shared");
  }
  if (!(sc.sched == sim::SchedSpec{})) {
    argv.push_back("--sched=" + sim::FormatSchedSpec(sc.sched));
  }
  // Always emitted, even disarmed ("io=0:..."): an absent --chaos would
  // make the subprocess arm the default storm instead of no storm.
  argv.push_back("--chaos=" + sim::FormatChaosSpec(sc.chaos));
  return argv;
}

std::string ScenarioRepro(const sim::ChaosScenario& sc, const std::string& vm) {
  std::vector<std::pair<std::string, std::string>> kv;
  kv.emplace_back("bench", "bench_chaos");
  std::size_t i = 0;
  for (const std::string& a : ScenarioArgv(sc, vm)) {
    std::string key = "a";
    key += std::to_string(i++);
    kv.emplace_back(std::move(key), a);
  }
  return sim::FormatRepro(kv);
}

void RunScenario(VmKind kind, const char* vm_name, const sim::ChaosScenario& sc) {
  World w(kind);
  bench::TraceRun trace(w, vm_name);
  kern::FleetConfig config;
  config.target_ops = sc.ops;
  config.seed = sc.seed;
  config.cpus = sc.cpus;
  config.sched = sc.sched;
  config.shared_storm = sc.shared_storm;
  if (sc.workers != 0) {
    config.workers = sc.workers;
  }
  if (config.workers < config.cpus) {
    config.workers = config.cpus;
  }
  kern::FleetWorkload fleet(*w.kernel, config);
  // SIM_HOST_TIME_OK: wall time is reported on stderr only, outside the
  // byte-compared deterministic stdout.
  auto t0 = std::chrono::steady_clock::now();
  const kern::FleetCounters& c = fleet.Run();
  auto t1 = std::chrono::steady_clock::now();  // SIM_HOST_TIME_OK: see above

  const sim::Stats& s = w.machine.stats();
  std::printf("%-6s %9llu %8llu %7llu %7llu %8llu %8llu %8llu %11.3f\n", vm_name,
              static_cast<unsigned long long>(c.ops),
              static_cast<unsigned long long>(c.soft_errors),
              static_cast<unsigned long long>(c.workers_respawned),
              static_cast<unsigned long long>(c.shared_storms),
              static_cast<unsigned long long>(s.io_errors_injected),
              static_cast<unsigned long long>(s.pressure_events),
              static_cast<unsigned long long>(s.memfault_events),
              static_cast<double>(w.machine.clock().now()) * 1e-6);
  std::fprintf(stderr, "[host] %s chaos: %.1f ms\n", vm_name,
               std::chrono::duration<double, std::milli>(t1 - t0).count());
}

// --shrink probe: re-run this binary on the candidate scenario, output
// discarded; "still fails" = nonzero exit (a panic aborts).
bool SubprocessFails(const std::string& self, const sim::ChaosScenario& sc,
                     const std::string& vm) {
  std::string cmd = self;
  for (const std::string& a : ScenarioArgv(sc, vm)) {
    cmd += " " + a;
  }
  cmd += " >/dev/null 2>&1";
  return std::system(cmd.c_str()) != 0;  // NOLINT: the shrinker's probe
}

void PrintScenario(const char* tag, const sim::ChaosScenario& sc, const std::string& vm) {
  std::string line;
  for (const std::string& a : ScenarioArgv(sc, vm)) {
    line += (line.empty() ? "" : " ") + a;
  }
  std::printf("%s: %s\n", tag, line.c_str());
}

int ShrinkDemo() {
  PrintHeader("Chaos shrinker demo (synthetic failure predicate)");
  // The "bug": fails whenever at least 2 I/O fault events meet at least 2
  // CPUs with a nontrivial op budget. Everything else — pressure, poison,
  // the pct schedule, the shared storm — is noise the shrinker must strip.
  sim::ChaosScenario start;
  start.cpus = 8;
  start.ops = 200'000;
  start.seed = 7;
  start.shared_storm = true;
  start.sched.strat = sim::SchedStrategy::kPct;
  start.sched.param = 3;
  start.chaos.io = 9;
  start.chaos.pressure = 4;
  start.chaos.poison = 2;
  start.chaos.seed = 7;
  auto still_fails = [](const sim::ChaosScenario& c) {
    return c.chaos.io >= 2 && c.cpus >= 2 && c.ops >= 1000;
  };
  std::size_t probes = 0;
  const sim::ChaosScenario minimal = sim::ShrinkScenario(start, still_fails, &probes);
  PrintScenario("start  ", start, "uvm");
  PrintScenario("minimal", minimal, "uvm");
  std::printf("probes: %zu\n", probes);
  std::printf("repro: %s\n", ScenarioRepro(minimal, "uvm").c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Init(argc, argv);
  bench::ArgSession& args = bench::ArgSession::Get();

  sim::ChaosScenario sc;
  sc.cpus = 4;
  sc.ops = 120'000;
  if (const char* v = args.ConsumeValue("--ops=")) {
    sc.ops = bench::ParseUint64("--ops", v);
  }
  if (const char* v = args.ConsumeValue("--seed=")) {
    sc.seed = bench::ParseUint64("--seed", v);
  }
  if (const char* v = args.ConsumeValue("--cpus=")) {
    sc.cpus = static_cast<std::size_t>(bench::ParseUint64("--cpus", v));
    if (sc.cpus < 1 || sc.cpus > 64) {
      std::fprintf(stderr, "bench_chaos: --cpus must be in [1, 64], got %zu\n", sc.cpus);
      return 2;
    }
  }
  if (const char* v = args.ConsumeValue("--workers=")) {
    sc.workers = static_cast<std::size_t>(bench::ParseUint64("--workers", v));
    if (sc.workers < sc.cpus || sc.workers > 256) {
      std::fprintf(stderr, "bench_chaos: --workers must be in [cpus, 256], got %zu\n",
                   sc.workers);
      return 2;
    }
  }
  sc.shared_storm = args.ConsumeFlag("--shared");
  std::string vm = "both";
  if (const char* v = args.ConsumeValue("--vm=")) {
    vm = v;
    if (vm != "uvm" && vm != "bsd" && vm != "both") {
      std::fprintf(stderr, "bench_chaos: --vm must be uvm, bsd or both, got '%s'\n", v);
      return 2;
    }
  }
  const bool shrink = args.ConsumeFlag("--shrink");
  const bool shrink_demo = args.ConsumeFlag("--shrink-demo");
  bench::RejectUnknownArgs();

  if (shrink_demo) {
    return ShrinkDemo();
  }

  // With no explicit storm, arm the standard one: bench_chaos exists to
  // storm, and the armed default keeps its double-run CI check meaningful.
  bench::PlanSession& plans = bench::PlanSession::Get();
  if (plans.world.chaos_plan.empty()) {
    plans.world.chaos_plan = kDefaultStorm;
  }
  {
    std::string error;
    const bool ok = sim::ParseChaosSpec(plans.world.chaos_plan, &sc.chaos, &error);
    SIM_ASSERT_MSG(ok, "chaos spec revalidation failed after Init");
  }
  sc.sched = plans.sched;

  if (shrink) {
    PrintHeader("Chaos scenario shrinker (subprocess probes)");
    PrintScenario("start  ", sc, vm);
    const std::string self = argc > 0 ? argv[0] : "bench_chaos";
    auto still_fails = [&self, &vm](const sim::ChaosScenario& c) {
      return SubprocessFails(self, c, vm);
    };
    if (!still_fails(sc)) {
      std::printf("scenario does not fail; nothing to shrink\n");
      return 1;
    }
    std::size_t probes = 0;
    const sim::ChaosScenario minimal = sim::ShrinkScenario(sc, still_fails, &probes);
    PrintScenario("minimal", minimal, vm);
    std::printf("probes: %zu\n", probes);
    std::printf("repro: %s\n", ScenarioRepro(minimal, vm).c_str());
    return 0;
  }

  PrintHeader("Chaos engine: fleet under composed fault storm");
  std::printf("%llu kernel ops per VM, %zu cpus, seed %llu\n",
              static_cast<unsigned long long>(sc.ops), sc.cpus,
              static_cast<unsigned long long>(sc.seed));
  std::printf("storm: %s\n", sim::FormatChaosSpec(sc.chaos).c_str());
  std::printf("schedule: %s\n", sim::FormatSchedSpec(sc.sched).c_str());
  if (sc.shared_storm) {
    std::printf("shared-map fault storm enabled\n");
  }
  std::printf("\n");
  std::printf("%-6s %9s %8s %7s %7s %8s %8s %8s %11s\n", "vm", "ops", "soft_err", "respawn",
              "shared", "io_err", "pres_ev", "poison", "vtime_ms");
  if (vm == "uvm" || vm == "both") {
    RunScenario(VmKind::kUvm, "uvm", sc);
  }
  if (vm == "bsd" || vm == "both") {
    RunScenario(VmKind::kBsd, "bsdvm", sc);
  }
  return 0;
}
