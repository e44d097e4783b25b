// Shared helpers for the benchmark harnesses. Every bench prints the rows
// or series of one table/figure from the paper, measured in virtual time
// (see DESIGN.md: absolute values are arbitrary; shapes and ratios are the
// reproduction target).
//
// All benches call bench::Init(argc, argv) first: it pins the classic "C"
// locale (output stays byte-identical under any host environment) and
// parses --trace=FILE. With tracing requested, wrap each World in a
// bench::TraceRun; the runs are merged into one Chrome-trace JSON document
// (one pid per run) written when the process exits. Tracing never changes
// virtual time or stats — the CI observer-effect check diffs traced vs
// untraced bench output.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cerrno>
#include <clocale>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <locale>
#include <string>
#include <vector>

#include "src/harness/world.h"
#include "src/sim/assert.h"
#include "src/sim/chaos.h"
#include "src/sim/trace.h"

namespace bench {

using harness::VmKind;
using harness::WorldConfig;

// Every plan-valued flag of a whole bench process, validated by Init.
// `world` carries --pressure, --memfault, --chaos (DESIGN.md §12, §13, §17)
// and --audit into every bench::World; each is inert, and entirely free,
// unless given. `sched` is the --sched strategy (default round-robin). The
// session only holds it: scheduler-driven workloads (the fleet,
// bench_chaos) install it after they Configure() the scheduler, and benches
// that never take scheduler turns accept the flag but are unaffected by it.
struct PlanSession {
  static PlanSession& Get() {
    static PlanSession session;
    return session;
  }

  WorldConfig world;
  sim::SchedSpec sched;
};

// Minimal-repro capture (DESIGN.md §17). Init() serializes the bench name
// and its post- --repro argument vector into one repro string and registers
// it with the panic path, so ANY fatal failure — assert, audit violation,
// deadlock, chaos-induced crash — prints a "repro: uvmchaos/v1|..." line on
// stderr. Feeding that string back via --repro=STR replays the exact same
// argument vector, which (everything else being a pure function of the
// CLI) replays the run byte-identically.
class ReproSession {
 public:
  static ReproSession& Get() {
    static ReproSession session;
    return session;
  }

  // Serialize and register. --trace= is excluded (observer-only); if any
  // argument contains '|' (unrepresentable in the repro grammar) capture is
  // skipped rather than recording a string that replays a different run.
  void Arm(const std::string& bench, const std::vector<std::string>& args) {
    std::vector<std::pair<std::string, std::string>> kv;
    kv.emplace_back("bench", bench);
    std::size_t i = 0;
    for (const std::string& a : args) {
      if (a.rfind("--trace=", 0) == 0) {
        continue;
      }
      if (a.find('|') != std::string::npos) {
        return;
      }
      std::string key = "a";
      key += std::to_string(i++);
      kv.emplace_back(std::move(key), a);
    }
    repro_ = sim::FormatRepro(kv);
    sim::SetPanicRepro(repro_.c_str());
  }

  bool armed() const { return !repro_.empty(); }

 private:
  ReproSession() = default;
  std::string repro_;  // owns the registered string for process lifetime
};

// The bench-side World: a harness::World armed with the session-wide
// --pressure / --memfault / --chaos / --audit settings, so each measured
// run replays the same scripted schedule in virtual time. Those four
// config fields come from the session only; a bench sets none of them.
class World : public harness::World {
 public:
  explicit World(VmKind kind, const WorldConfig& config = WorldConfig{})
      : harness::World(kind, WithSessionPlans(config)) {}

 private:
  static WorldConfig WithSessionPlans(WorldConfig config) {
    const WorldConfig& session = PlanSession::Get().world;
    config.pressure_plan = session.pressure_plan;
    config.memfault_plan = session.memfault_plan;
    config.chaos_plan = session.chaos_plan;
    config.audit_every = session.audit_every;
    return config;
  }
};

// Merged Chrome-trace output for a whole bench process. Inactive (and
// entirely free) unless --trace=FILE was given.
class TraceSession {
 public:
  static TraceSession& Get() {
    static TraceSession session;
    return session;
  }

  bool enabled() const { return !path_.empty(); }
  void SetPath(std::string path) { path_ = std::move(path); }

  // Append one machine's events as a new pid named `label`.
  void Flush(sim::Machine& machine, const char* label) {
    if (!enabled()) {
      return;
    }
    if (!os_.is_open()) {
      os_.open(path_, std::ios::out | std::ios::trunc);
      SIM_ASSERT_MSG(os_.is_open(), "cannot open --trace output file");
      sim::OpenChromeTrace(os_);
    }
    sim::AppendChromeTraceEvents(os_, machine.tracer(), next_pid_++, label, &first_);
  }

  ~TraceSession() {
    if (os_.is_open()) {
      sim::CloseChromeTrace(os_);
    }
  }

 private:
  TraceSession() = default;
  std::string path_;
  std::ofstream os_;
  bool first_ = true;
  int next_pid_ = 1;
};

// Strict command-line handling. Every bench argument is either consumed by
// Init (the session-wide flags) or by the bench's own ConsumeFlag /
// ConsumeValue calls; whatever is left is a typo, and RejectUnknownArgs
// exits nonzero instead of silently running a different benchmark than the
// user asked for (`--lcoks` must not quietly drop the lock table).
class ArgSession {
 public:
  static ArgSession& Get() {
    static ArgSession session;
    return session;
  }

  void Capture(int argc, char** argv) {
    prog_ = argc > 0 ? argv[0] : "bench";
    args_.assign(argv + 1, argv + argc);
    used_.assign(args_.size(), false);
  }

  // Exact-match flag ("--locks"); true (and consumed) when present.
  bool ConsumeFlag(const char* name) {
    bool found = false;
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (!used_[i] && args_[i] == name) {
        used_[i] = true;
        found = true;
      }
    }
    return found;
  }

  // Prefix-match value flag ("--ops=" -> text after '='); nullptr when
  // absent. The last occurrence wins, all occurrences are consumed.
  const char* ConsumeValue(const char* prefix) {
    const char* value = nullptr;
    const std::size_t n = std::strlen(prefix);
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (!used_[i] && args_[i].compare(0, n, prefix) == 0) {
        used_[i] = true;
        value = args_[i].c_str() + n;
      }
    }
    return value;
  }

  // The captured arguments (consumed or not) and program basename; used by
  // the repro capture to serialize this run's full CLI.
  const std::vector<std::string>& all() const { return args_; }
  std::string prog_base() const {
    const std::size_t slash = prog_.find_last_of('/');
    return slash == std::string::npos ? prog_ : prog_.substr(slash + 1);
  }

  // Replace the argument vector (the --repro replay path): subsequent
  // Consume* calls parse the replayed CLI instead of the typed one.
  void Replace(std::vector<std::string> args) {
    args_ = std::move(args);
    used_.assign(args_.size(), false);
  }

  void RejectUnknown() const {
    bool bad = false;
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (!used_[i]) {
        std::fprintf(stderr, "%s: unknown argument '%s'\n", prog_.c_str(), args_[i].c_str());
        bad = true;
      }
    }
    if (bad) {
      std::exit(2);
    }
  }

 private:
  ArgSession() = default;
  std::string prog_;
  std::vector<std::string> args_;
  std::vector<bool> used_;
};

// Strict decimal parse for --flag=N values. Rejects empty text, trailing
// junk, signs, and out-of-range values with a nonzero exit — strtoull's
// silent garbage-to-0 mapping turned typos into differently-parameterized
// (but plausible-looking) benchmark runs.
inline std::uint64_t ParseUint64(const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*text == '\0' || *end != '\0' || errno == ERANGE || text[0] == '-' || text[0] == '+') {
    std::fprintf(stderr, "bench: %s expects an unsigned decimal number, got '%s'\n", flag, text);
    std::exit(2);
  }
  return static_cast<std::uint64_t>(v);
}

// Called by every bench main after its own flags are consumed.
inline void RejectUnknownArgs() { ArgSession::Get().RejectUnknown(); }

// Parse a plan-valued flag's text with `parse`; a malformed one exits 2
// with the parser's message.
template <typename Plan>
Plan ParsePlanFlag(const char* what, const char* text,
                   bool (*parse)(const std::string&, Plan*, std::string*)) {
  Plan plan;
  std::string error;
  if (!parse(text, &plan, &error)) {
    std::fprintf(stderr, "bench: bad %s: %s\n", what, error.c_str());
    std::exit(2);
  }
  return plan;
}

// Pin the locale and parse the session-wide flags. Bench-specific flags are
// consumed afterwards via ArgSession; each main ends its parsing with
// RejectUnknownArgs(). Every plan-valued flag is validated here, at parse
// time: a malformed --pressure/--memfault/--chaos/--sched exits 2 with the
// parser's message instead of panicking mid-run (the World installers stay
// as a programmatic backstop).
inline void Init(int argc, char** argv) {
  std::setlocale(LC_ALL, "C");
  std::locale::global(std::locale::classic());
  ArgSession& args = ArgSession::Get();
  args.Capture(argc, argv);
  if (const char* v = args.ConsumeValue("--repro=")) {
    // Replay: swap in the argument vector recorded in the repro string.
    std::vector<std::pair<std::string, std::string>> kv;
    std::string error;
    if (!sim::ParseRepro(v, &kv, &error)) {
      std::fprintf(stderr, "bench: bad --repro string: %s\n", error.c_str());
      std::exit(2);
    }
    const std::string* bench = sim::ReproValue(kv, "bench");
    if (bench == nullptr || *bench != args.prog_base()) {
      std::fprintf(stderr, "bench: --repro string is for '%s', this is '%s'\n",
                   bench == nullptr ? "?" : bench->c_str(), args.prog_base().c_str());
      std::exit(2);
    }
    std::vector<std::string> replay;
    for (const auto& [key, value] : kv) {
      if (key != "bench") {
        replay.push_back(value);
      }
    }
    args.Replace(std::move(replay));
  }
  ReproSession::Get().Arm(args.prog_base(), args.all());
  if (const char* v = args.ConsumeValue("--trace=")) {
    TraceSession::Get().SetPath(v);
  }
  PlanSession& plans = PlanSession::Get();
  if (const char* v = args.ConsumeValue("--pressure=")) {
    ParsePlanFlag("--pressure plan", v, sim::ParsePressurePlan);
    plans.world.pressure_plan = v;
  }
  if (const char* v = args.ConsumeValue("--memfault=")) {
    ParsePlanFlag("--memfault plan", v, sim::ParseMemFaultPlan);
    plans.world.memfault_plan = v;
  }
  if (const char* v = args.ConsumeValue("--chaos=")) {
    ParsePlanFlag("--chaos plan", v, sim::ParseChaosSpec);
    plans.world.chaos_plan = v;
  }
  if (const char* v = args.ConsumeValue("--sched=")) {
    plans.sched = ParsePlanFlag("--sched spec", v, sim::ParseSchedSpec);
  }
  if (const char* v = args.ConsumeValue("--audit=")) {
    plans.world.audit_every = ParseUint64("--audit", v) * 1'000'000;
  }
}

// RAII: enable tracing on a World's machine for one measured run and flush
// the events into the session on scope exit (before the World dies).
class TraceRun {
 public:
  TraceRun(World& w, std::string label) : machine_(w.machine), label_(std::move(label)) {
    if (TraceSession::Get().enabled()) {
      machine_.tracer().Enable();
    }
  }

  TraceRun(const TraceRun&) = delete;
  TraceRun& operator=(const TraceRun&) = delete;

  ~TraceRun() {
    if (TraceSession::Get().enabled()) {
      TraceSession::Get().Flush(machine_, label_.c_str());
      machine_.tracer().Disable();
    }
  }

 private:
  sim::Machine& machine_;
  std::string label_;
};

inline void PrintHeader(const char* title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title);
  std::printf("==============================================================\n");
}

// Virtual time elapsed in `w` since `start_ns`, in microseconds / seconds.
inline double MicrosSince(const World& w, sim::Nanoseconds start_ns) {
  return static_cast<double>(w.machine.clock().now() - start_ns) * 1e-3;
}
inline double SecondsSince(const World& w, sim::Nanoseconds start_ns) {
  return static_cast<double>(w.machine.clock().now() - start_ns) * 1e-9;
}

// One-line per-category cost summary ("fault 12.40us pmap 3.10us ...") of a
// breakdown delta, scaled by 1/iters, categories in enum order, zero
// categories skipped.
inline std::string BreakdownLine(const sim::CostBreakdown& d, double iters) {
  char buf[64];
  std::string out;
  for (std::size_t i = 0; i < sim::kNumCostCats; ++i) {
    if (d.ns[i] == 0) {
      continue;
    }
    std::snprintf(buf, sizeof(buf), "%s%s %.2fus", out.empty() ? "" : "  ",
                  sim::CostCatName(static_cast<sim::CostCat>(i)),
                  static_cast<double>(d.ns[i]) * 1e-3 / iters);
    out += buf;
  }
  return out;
}

}  // namespace bench

#endif  // BENCH_BENCH_COMMON_H_
