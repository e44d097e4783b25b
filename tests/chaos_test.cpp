// Chaos engine (src/sim/chaos.h, DESIGN.md §17): spec parsing and
// round-trips, storm construction determinism and per-component stream
// independence, chaos-armed double-run byte-identity across schedule
// strategies, repro-string capture, shrinker convergence on a synthetic
// fixture bug, and death tests proving the deadlock/rank validators still
// fire under fuzzed (PCT, preemption-bounded) schedules.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/world.h"
#include "src/kern/fleet.h"
#include "src/sim/chaos.h"
#include "src/sim/lock.h"
#include "src/sim/machine.h"
#include "src/sim/scheduler.h"

namespace {

using harness::VmKind;
using harness::World;
using harness::WorldConfig;

// --- Spec parsing ---------------------------------------------------------

TEST(ChaosSpecTest, SchedSpecParsesEveryStrategy) {
  sim::SchedSpec spec;
  std::string error;
  ASSERT_TRUE(sim::ParseSchedSpec("rr", &spec, &error));
  EXPECT_EQ(sim::SchedStrategy::kRoundRobin, spec.strat);
  EXPECT_EQ(0u, spec.param);
  EXPECT_EQ(0u, spec.seed);
  ASSERT_TRUE(sim::ParseSchedSpec("random:7", &spec, &error));
  EXPECT_EQ(sim::SchedStrategy::kRandom, spec.strat);
  EXPECT_EQ(7u, spec.seed);
  ASSERT_TRUE(sim::ParseSchedSpec("burst", &spec, &error));
  EXPECT_EQ(sim::SchedStrategy::kRandomBurst, spec.strat);
  ASSERT_TRUE(sim::ParseSchedSpec("pct3:9", &spec, &error));
  EXPECT_EQ(sim::SchedStrategy::kPct, spec.strat);
  EXPECT_EQ(3u, spec.param);
  EXPECT_EQ(9u, spec.seed);
  ASSERT_TRUE(sim::ParseSchedSpec("pb16", &spec, &error));
  EXPECT_EQ(sim::SchedStrategy::kPreemptBound, spec.strat);
  EXPECT_EQ(16u, spec.param);
}

TEST(ChaosSpecTest, SchedSpecRejectsMalformedInput) {
  sim::SchedSpec spec;
  std::string error;
  for (const char* bad : {"", "bogus", "pct0", "rr5", "burst9", "pct3:abc", "pb:1:2", "pb-4",
                          "pct99999999999999999999", "pct3:99999999999999999999"}) {
    EXPECT_FALSE(sim::ParseSchedSpec(bad, &spec, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(ChaosSpecTest, SchedSpecRoundTripsThroughFormat) {
  for (const char* text : {"rr", "random:7", "burst:12", "pct3:9", "pb4", "pct7"}) {
    sim::SchedSpec spec;
    std::string error;
    ASSERT_TRUE(sim::ParseSchedSpec(text, &spec, &error)) << text;
    EXPECT_EQ(text, sim::FormatSchedSpec(spec));
    sim::SchedSpec again;
    ASSERT_TRUE(sim::ParseSchedSpec(sim::FormatSchedSpec(spec), &again, &error));
    EXPECT_EQ(spec, again) << text;
  }
}

TEST(ChaosSpecTest, ChaosSpecParsesComponentsAndOptions) {
  sim::ChaosSpec spec;
  std::string error;
  ASSERT_TRUE(sim::ParseChaosSpec("io=4,pressure=2,poison=1:seed=9:span=80ms", &spec, &error));
  EXPECT_EQ(4u, spec.io);
  EXPECT_EQ(2u, spec.pressure);
  EXPECT_EQ(1u, spec.poison);
  EXPECT_EQ(9u, spec.seed);
  EXPECT_EQ(80'000'000u, spec.span);
  EXPECT_TRUE(spec.armed());
  // Defaults: unlisted components 0, seed 1, span 50ms.
  ASSERT_TRUE(sim::ParseChaosSpec("io=2", &spec, &error));
  EXPECT_EQ(2u, spec.io);
  EXPECT_EQ(0u, spec.pressure);
  EXPECT_EQ(0u, spec.poison);
  EXPECT_EQ(1u, spec.seed);
  EXPECT_EQ(50'000'000u, spec.span);
  // Disarmed but parseable (what a fully shrunk scenario emits).
  ASSERT_TRUE(sim::ParseChaosSpec("io=0:seed=3:span=1ms", &spec, &error));
  EXPECT_FALSE(spec.armed());
}

TEST(ChaosSpecTest, ChaosSpecRejectsMalformedInput) {
  sim::ChaosSpec spec;
  std::string error;
  for (const char* bad :
       {"", "wat=3", "io", "io=x", "io=1:span=0", "io=1:wat=3", "io=1:seed=x",
        "io=1:span=5lightyears", "io=99999999999999999999", "io=1:span=20000000000s",
        "io=1:seed=99999999999999999999"}) {
    EXPECT_FALSE(sim::ParseChaosSpec(bad, &spec, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(ChaosSpecTest, ChaosSpecRoundTripsThroughFormat) {
  for (const char* text :
       {"io=4,pressure=2,poison=1:seed=9:span=80ms", "io=2:seed=1:span=50ms",
        "pressure=7:seed=3:span=123ns"}) {
    sim::ChaosSpec spec;
    std::string error;
    ASSERT_TRUE(sim::ParseChaosSpec(text, &spec, &error)) << text;
    EXPECT_EQ(text, sim::FormatChaosSpec(spec)) << text;
    sim::ChaosSpec again;
    ASSERT_TRUE(sim::ParseChaosSpec(sim::FormatChaosSpec(spec), &again, &error));
    EXPECT_EQ(spec, again) << text;
  }
}

// --- Repro strings --------------------------------------------------------

TEST(ChaosReproTest, ReproRoundTripsValuesWithPlanGrammar) {
  // Values carry '=' , ';' and ':' — everything the plan grammars use.
  const std::vector<std::pair<std::string, std::string>> kv = {
      {"bench", "bench_chaos"},
      {"a0", "--ops=30000"},
      {"a1", "--chaos=io=4,pressure=2:seed=9:span=80ms"},
      {"a2", "--pressure=@10ms phys-=512; @20ms phys+=512"},
  };
  const std::string repro = sim::FormatRepro(kv);
  EXPECT_EQ(0u, repro.find("uvmchaos/v1|"));
  std::vector<std::pair<std::string, std::string>> parsed;
  std::string error;
  ASSERT_TRUE(sim::ParseRepro(repro, &parsed, &error));
  EXPECT_EQ(kv, parsed);
  ASSERT_NE(nullptr, sim::ReproValue(parsed, "a1"));
  EXPECT_EQ("--chaos=io=4,pressure=2:seed=9:span=80ms", *sim::ReproValue(parsed, "a1"));
  EXPECT_EQ(nullptr, sim::ReproValue(parsed, "a9"));
}

TEST(ChaosReproTest, ReproRejectsForeignAndMalformedStrings) {
  std::vector<std::pair<std::string, std::string>> parsed;
  std::string error;
  EXPECT_FALSE(sim::ParseRepro("somethingelse/v1|a=b", &parsed, &error));
  EXPECT_FALSE(sim::ParseRepro("uvmchaos/v1|noequals", &parsed, &error));
  EXPECT_FALSE(sim::ParseRepro("uvmchaos/v1|=value", &parsed, &error));
  EXPECT_TRUE(sim::ParseRepro("uvmchaos/v1", &parsed, &error));  // bare prefix is fine
  EXPECT_TRUE(parsed.empty());
}

TEST(ChaosReproDeathTest, PanicPrintsTheRegisteredReproString) {
  static const std::string repro = "uvmchaos/v1|bench=chaos_test|a0=--seed=5";
  sim::SetPanicRepro(repro.c_str());
  EXPECT_DEATH(SIM_PANIC("synthetic chaos failure"),
               "panic: .*synthetic chaos failure.*\n.*repro: uvmchaos/v1\\|bench=chaos_test");
  sim::SetPanicRepro(nullptr);
}

// --- Storm construction ---------------------------------------------------

TEST(ChaosStormTest, SameSpecBuildsTheSameStorm) {
  sim::ChaosSpec spec;
  std::string error;
  ASSERT_TRUE(sim::ParseChaosSpec("io=8,pressure=4,poison=3:seed=11:span=60ms", &spec, &error));
  const sim::ChaosGeometry geom{8192, 32768};
  const sim::ChaosStorm a = sim::BuildChaosStorm(spec, geom);
  const sim::ChaosStorm b = sim::BuildChaosStorm(spec, geom);
  ASSERT_EQ(a.pressure.events.size(), b.pressure.events.size());
  EXPECT_EQ(4u + 2u, a.pressure.events.size());  // 4 shrink/set + 2 restore
  for (std::size_t i = 0; i < a.pressure.events.size(); ++i) {
    EXPECT_EQ(a.pressure.events[i].at, b.pressure.events[i].at);
    EXPECT_EQ(a.pressure.events[i].amount, b.pressure.events[i].amount);
  }
  ASSERT_EQ(3u, a.mem.events.size());
  for (std::size_t i = 0; i < a.mem.events.size(); ++i) {
    EXPECT_EQ(a.mem.events[i].at, b.mem.events[i].at);
    EXPECT_EQ(a.mem.events[i].count, b.mem.events[i].count);
    EXPECT_TRUE(a.mem.events[i].random);
  }
  // The io component arms both Bernoulli rates and scheduled faults.
  EXPECT_EQ(8u, a.io_fs.read_num);
  EXPECT_EQ(1000u, a.io_fs.read_den);
  EXPECT_EQ(8u, a.io_swap.write_num);
  EXPECT_EQ(8u, a.io_fs.fail_reads.size() + a.io_fs.fail_writes.size() +
                    a.io_swap.fail_reads.size() + a.io_swap.fail_writes.size());
}

// Per-component streams are decorrelated: dropping one component must not
// move another component's events — the property the shrinker rests on.
TEST(ChaosStormTest, ComponentsDrawFromIndependentStreams) {
  sim::ChaosSpec spec;
  std::string error;
  ASSERT_TRUE(sim::ParseChaosSpec("io=8,pressure=4,poison=3:seed=11:span=60ms", &spec, &error));
  const sim::ChaosGeometry geom{8192, 32768};
  const sim::ChaosStorm full = sim::BuildChaosStorm(spec, geom);
  sim::ChaosSpec no_io = spec;
  no_io.io = 0;
  const sim::ChaosStorm without = sim::BuildChaosStorm(no_io, geom);
  ASSERT_EQ(full.pressure.events.size(), without.pressure.events.size());
  for (std::size_t i = 0; i < full.pressure.events.size(); ++i) {
    EXPECT_EQ(full.pressure.events[i].at, without.pressure.events[i].at);
    EXPECT_EQ(full.pressure.events[i].amount, without.pressure.events[i].amount);
  }
  ASSERT_EQ(full.mem.events.size(), without.mem.events.size());
  for (std::size_t i = 0; i < full.mem.events.size(); ++i) {
    EXPECT_EQ(full.mem.events[i].at, without.mem.events[i].at);
  }
  EXPECT_TRUE(without.io_fs.fail_reads.empty());
  EXPECT_EQ(0u, without.io_fs.read_num);
}

// --- Schedule strategies --------------------------------------------------

// PCT demotes the running CPU at exactly k preemption points: the turn
// sequence is piecewise-constant with at most k value changes.
TEST(ChaosSchedTest, PctChangesCpuAtMostKTimes) {
  sim::Machine m;
  m.scheduler().Configure(4, 3);
  m.scheduler().SetStrategy(sim::SchedSpec{sim::SchedStrategy::kPct, 3, 99});
  std::size_t changes = 0;
  std::size_t prev = m.scheduler().NextTurnCpu();
  for (int i = 0; i < 5000; ++i) {
    const std::size_t cpu = m.scheduler().NextTurnCpu();
    if (cpu != prev) {
      ++changes;
    }
    prev = cpu;
  }
  EXPECT_LE(changes, 3u);
  EXPECT_GE(changes, 1u);  // three draws over a 4096-turn horizon land inside it
}

// Preemption-bounded sweep: deterministic round-robin that only rotates
// every N turns — no randomness at all. Like the classic round-robin it
// advances before the first turn, so a 2-CPU sweep opens on CPU 1.
TEST(ChaosSchedTest, PreemptBoundRotatesEveryNTurns) {
  sim::Machine m;
  m.scheduler().Configure(2, 1);
  m.scheduler().SetStrategy(sim::SchedSpec{sim::SchedStrategy::kPreemptBound, 4, 1});
  std::vector<std::size_t> turns;
  for (int i = 0; i < 12; ++i) {
    turns.push_back(m.scheduler().NextTurnCpu());
  }
  const std::vector<std::size_t> want = {1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1};
  EXPECT_EQ(want, turns);
}

// --- Chaos-armed fleet determinism ----------------------------------------

std::vector<std::string> FleetFingerprint(VmKind kind, const std::string& chaos_plan,
                                          const sim::SchedSpec& sched, bool shared) {
  WorldConfig wc;
  wc.chaos_plan = chaos_plan;
  World w(kind, wc);
  kern::FleetConfig cfg;
  cfg.target_ops = 20000;
  // The default fleet sizing: 6 workers on 4 CPUs (bench_chaos --workers
  // sweeps wider fleets; EXPERIMENTS.md's survival matrix covers those).
  cfg.workers = 6;
  cfg.cpus = 4;
  cfg.sched = sched;
  cfg.shared_storm = shared;
  kern::FleetWorkload fleet(*w.kernel, cfg);
  const kern::FleetCounters& c = fleet.Run();
  std::vector<std::string> fp;
  fp.push_back("ops:" + std::to_string(c.ops) + " soft:" + std::to_string(c.soft_errors) +
               " respawn:" + std::to_string(c.workers_respawned) +
               " shared:" + std::to_string(c.shared_storms));
  fp.push_back("t:" + std::to_string(w.machine.clock().now()) +
               " faults:" + std::to_string(w.machine.stats().faults) +
               " io_err:" + std::to_string(w.machine.stats().io_errors_injected) +
               " pres:" + std::to_string(w.machine.stats().pressure_events) +
               " poison:" + std::to_string(w.machine.stats().memfault_events));
  return fp;
}

// Every strategy × chaos-armed combination double-runs identically: chaos
// runs are exactly as deterministic as classic ones.
TEST(ChaosDeterminismTest, ChaosArmedFleetDoubleRunsAreIdentical) {
  const std::string storm = "io=6,pressure=3,poison=2:seed=5:span=30ms";
  for (const char* sched_text : {"rr", "random:3", "burst:4", "pct3:7", "pb8"}) {
    sim::SchedSpec sched;
    std::string error;
    ASSERT_TRUE(sim::ParseSchedSpec(sched_text, &sched, &error));
    for (VmKind kind : {VmKind::kBsd, VmKind::kUvm}) {
      const auto a = FleetFingerprint(kind, storm, sched, /*shared=*/true);
      const auto b = FleetFingerprint(kind, storm, sched, /*shared=*/true);
      EXPECT_EQ(a, b) << "chaos fleet diverged under " << sched_text;
    }
  }
}

// Fuzzed schedules explore different interleavings: a random schedule's
// fingerprint must differ from round-robin's (same seed, same storm).
TEST(ChaosDeterminismTest, FuzzedSchedulesActuallyChangeTheInterleaving) {
  const std::string storm = "io=6,pressure=3:seed=5:span=30ms";
  sim::SchedSpec rr;
  sim::SchedSpec random;
  std::string error;
  ASSERT_TRUE(sim::ParseSchedSpec("random:3", &random, &error));
  const auto a = FleetFingerprint(VmKind::kUvm, storm, rr, false);
  const auto b = FleetFingerprint(VmKind::kUvm, storm, random, false);
  EXPECT_NE(a, b);
}

// The shared-map storm actually converges workers on one mapping.
TEST(ChaosFleetTest, SharedStormRoundsAreServed) {
  const auto fp = FleetFingerprint(VmKind::kUvm, "", sim::SchedSpec{}, /*shared=*/true);
  EXPECT_NE(std::string::npos, fp[0].find("shared:"));
  EXPECT_EQ(std::string::npos, fp[0].find("shared:0 "));  // nonzero rounds
}

// --- Validators under fuzzed schedules ------------------------------------

// The cross-CPU deadlock detector fires under a PCT schedule exactly as it
// does under round-robin: strategies change who runs, never what is legal.
TEST(ChaosValidatorDeathTest, DeadlockDetectorFiresUnderPctSchedule) {
  sim::Machine m;
  m.scheduler().Configure(2, 1);
  m.scheduler().SetStrategy(sim::SchedSpec{sim::SchedStrategy::kPct, 2, 5});
  sim::SimLock lock(m, "t.chaos.dead", sim::LockRank::kMap);
  lock.Acquire();
  // SIM_SCHED_SWITCH_OK: deliberately yields with a lock held to prove the
  // detector fires under a fuzzed strategy too.
  m.scheduler().SwitchTo(1);
  EXPECT_DEATH(lock.Acquire(),
               "deadlock: cpu1 acquiring lock t.chaos.dead held by descheduled cpu0");
  // SIM_SCHED_SWITCH_OK: back to the owner to release cleanly.
  m.scheduler().SwitchTo(0);
  lock.Release();
}

// The rank validator fires under a preemption-bounded schedule.
TEST(ChaosValidatorDeathTest, RankValidatorFiresUnderPreemptBoundSchedule) {
  sim::Machine m;
  m.scheduler().Configure(2, 1);
  m.scheduler().SetStrategy(sim::SchedSpec{sim::SchedStrategy::kPreemptBound, 4, 1});
  sim::SimLock pmap(m, "t.chaos.pmap", sim::LockRank::kPmap);
  sim::SimLock map(m, "t.chaos.map", sim::LockRank::kMap);
  pmap.Acquire();
  EXPECT_DEATH(map.Acquire(),
               "lock rank violation: acquiring t.chaos.map \\(rank map\\) "
               "while holding t.chaos.pmap \\(rank pmap\\)");
  pmap.Release();
}

// --- Shrinker -------------------------------------------------------------

// Convergence on a seeded fixture bug: the predicate fails whenever io >= 2
// and cpus >= 2 and ops >= 1000; everything else is noise the shrinker must
// strip, landing on the minimal scenario in a bounded number of probes.
TEST(ChaosShrinkTest, ShrinkerConvergesOnFixtureBug) {
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
  auto still_fails = [](const sim::ChaosScenario& c) {
    return c.chaos.io >= 2 && c.cpus >= 2 && c.ops >= 1000;
  };
  std::size_t probes = 0;
  const sim::ChaosScenario minimal = sim::ShrinkScenario(start, still_fails, &probes);
  EXPECT_TRUE(still_fails(minimal));
  EXPECT_EQ(2u, minimal.chaos.io);
  EXPECT_EQ(0u, minimal.chaos.pressure);
  EXPECT_EQ(0u, minimal.chaos.poison);
  EXPECT_EQ(2u, minimal.cpus);
  EXPECT_FALSE(minimal.shared_storm);
  EXPECT_EQ(sim::SchedStrategy::kRoundRobin, minimal.sched.strat);
  EXPECT_GE(minimal.ops, 1000u);
  EXPECT_LT(minimal.ops, 2000u);  // one more halving would pass
  EXPECT_LE(probes, 512u);
  EXPECT_GT(probes, 0u);
  // Shrinking is idempotent: re-shrinking the minimum accepts nothing.
  std::size_t again = 0;
  EXPECT_EQ(minimal, sim::ShrinkScenario(minimal, still_fails, &again));
}

// The worker dimension shrinks toward the cpu floor; workers == 0 (the
// engine's default sizing) is never a shrink target.
TEST(ChaosShrinkTest, WorkersShrinkTowardTheCpuFloor) {
  sim::ChaosScenario start;
  start.cpus = 2;
  start.workers = 16;
  start.ops = 10'000;
  start.chaos.io = 4;
  auto still_fails = [](const sim::ChaosScenario& c) {
    return c.workers >= 5 && c.chaos.io >= 1 && c.ops >= 1;
  };
  const sim::ChaosScenario minimal = sim::ShrinkScenario(start, still_fails);
  EXPECT_TRUE(still_fails(minimal));
  EXPECT_EQ(8u, minimal.workers);  // 16 -> 8; one more halving would pass

  // Default-sized fleets stay default-sized: no candidate invents a count.
  sim::ChaosScenario dflt = start;
  dflt.workers = 0;
  EXPECT_EQ(0u, sim::ShrinkScenario(dflt, [](const sim::ChaosScenario& c) {
              return c.chaos.io >= 1 && c.ops >= 1;
            }).workers);
}

// A predicate that only ever fails on the start scenario leaves it alone.
TEST(ChaosShrinkTest, UnshrinkableScenarioIsReturnedIntact) {
  sim::ChaosScenario start;
  start.cpus = 4;
  start.ops = 50'000;
  start.chaos.io = 5;
  auto still_fails = [&start](const sim::ChaosScenario& c) { return c == start; };
  EXPECT_EQ(start, sim::ShrinkScenario(start, still_fails));
}

// The probe budget is a hard cap even for pathological predicates.
TEST(ChaosShrinkTest, ProbeBudgetIsRespected) {
  sim::ChaosScenario start;
  start.cpus = 64;
  start.ops = 1'000'000'000;
  start.chaos.io = 1'000'000;
  start.chaos.pressure = 1'000'000;
  auto still_fails = [](const sim::ChaosScenario&) { return true; };
  std::size_t probes = 0;
  sim::ShrinkScenario(start, still_fails, &probes, 40);
  EXPECT_LE(probes, 40u);
}

}  // namespace
