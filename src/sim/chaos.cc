#include "src/sim/chaos.h"

#include <algorithm>
#include <cctype>

#include "src/sim/assert.h"
#include "src/sim/plan.h"
#include "src/sim/rng.h"

namespace sim {

namespace {

// Per-component stream decorrelation: component i draws from
// Rng(seed ^ i*gamma) (splitmix64 golden gamma), so shrinking one component
// never perturbs another's events and a given spec always builds the same
// storm. simlint rule chaos-undecorrelated-stream enforces that every Rng
// constructed in this file references one of these constants.
constexpr std::uint64_t kChaosGamma = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kIoStream = kChaosGamma * 1;
constexpr std::uint64_t kPressureStream = kChaosGamma * 2;
constexpr std::uint64_t kPoisonStream = kChaosGamma * 3;

// A storm event time: uniform over [span/10, span] — never at t=0, so the
// world always boots quiet and the first events land mid-workload.
Nanoseconds DrawEventTime(Rng& rng, Nanoseconds span) {
  const Nanoseconds lo = span / 10;
  return lo + static_cast<Nanoseconds>(rng.Below(static_cast<std::uint64_t>(span - lo) + 1));
}

}  // namespace

// --- Schedule-strategy specs ----------------------------------------------

const char* SchedStrategyName(SchedStrategy s) {
  switch (s) {
    case SchedStrategy::kRoundRobin:
      return "rr";
    case SchedStrategy::kRandom:
      return "random";
    case SchedStrategy::kRandomBurst:
      return "burst";
    case SchedStrategy::kPct:
      return "pct";
    case SchedStrategy::kPreemptBound:
      return "pb";
  }
  return "?";
}

bool ParseSchedSpec(const std::string& spec, SchedSpec* out, std::string* error) {
  *out = SchedSpec{};
  std::string head = spec;
  const std::size_t colon = spec.find(':');
  if (colon != std::string::npos) {
    head = spec.substr(0, colon);
    const std::string tail = spec.substr(colon + 1);
    std::size_t i = 0;
    if (!ParseU64(tail, &i, &out->seed) || i != tail.size()) {
      *error = "bad schedule seed in \"" + spec + "\" (want STRAT[PARAM][:SEED])";
      return false;
    }
  }
  std::size_t name_end = 0;
  while (name_end < head.size() &&
         std::isalpha(static_cast<unsigned char>(head[name_end])) != 0) {
    ++name_end;
  }
  const std::string name = head.substr(0, name_end);
  const std::string param = head.substr(name_end);
  if (!param.empty()) {
    std::size_t i = 0;
    if (!ParseU64(param, &i, &out->param) || i != param.size() || out->param == 0) {
      *error = "bad strategy parameter in \"" + spec + "\" (want e.g. pct3 or pb16)";
      return false;
    }
  }
  if (name == "rr") {
    out->strat = SchedStrategy::kRoundRobin;
  } else if (name == "random") {
    out->strat = SchedStrategy::kRandom;
  } else if (name == "burst") {
    out->strat = SchedStrategy::kRandomBurst;
  } else if (name == "pct") {
    out->strat = SchedStrategy::kPct;
  } else if (name == "pb") {
    out->strat = SchedStrategy::kPreemptBound;
  } else {
    *error = "unknown schedule strategy \"" + name +
             "\" (want rr, random, burst, pct[K] or pb[N])";
    return false;
  }
  if (out->param != 0 && out->strat != SchedStrategy::kPct &&
      out->strat != SchedStrategy::kPreemptBound) {
    *error = "strategy \"" + name + "\" takes no parameter (only pct[K] and pb[N] do)";
    return false;
  }
  return true;
}

std::string FormatSchedSpec(const SchedSpec& spec) {
  std::string out = SchedStrategyName(spec.strat);
  if (spec.param != 0) {
    out += std::to_string(spec.param);
  }
  if (spec.seed != 0) {
    out += ":" + std::to_string(spec.seed);
  }
  return out;
}

// --- Composed fault storms ------------------------------------------------

bool ParseChaosSpec(const std::string& spec, ChaosSpec* out, std::string* error) {
  *out = ChaosSpec{};
  bool any_component = false;
  // ':'-separated segments: the first lists components, the rest options.
  std::size_t pos = 0;
  bool first_segment = true;
  while (pos <= spec.size()) {
    std::size_t colon = spec.find(':', pos);
    if (colon == std::string::npos) {
      colon = spec.size();
    }
    const std::string seg = spec.substr(pos, colon - pos);
    pos = colon + 1;
    if (first_segment) {
      first_segment = false;
      const bool ok = ForEachPlanItem(seg, ',', [out, error, &any_component](std::string tok) {
        std::size_t i = 0;
        SkipWs(tok, &i);
        std::size_t end = tok.size();
        while (end > i && std::isspace(static_cast<unsigned char>(tok[end - 1])) != 0) {
          --end;
        }
        tok = tok.substr(i, end - i);
        const std::size_t eq = tok.find('=');
        if (eq == std::string::npos) {
          *error = "expected COMPONENT=COUNT in \"" + tok + "\" (io, pressure or poison)";
          return false;
        }
        const std::string key = tok.substr(0, eq);
        const std::string val = tok.substr(eq + 1);
        std::uint64_t count = 0;
        std::size_t vi = 0;
        if (!ParseU64(val, &vi, &count) || vi != val.size()) {
          *error = "bad event count in \"" + tok + "\"";
          return false;
        }
        if (key == "io") {
          out->io = count;
        } else if (key == "pressure") {
          out->pressure = count;
        } else if (key == "poison") {
          out->poison = count;
        } else {
          *error = "unknown chaos component \"" + key + "\" (want io, pressure or poison)";
          return false;
        }
        any_component = true;
        return true;
      });
      if (!ok) {
        return false;
      }
      continue;
    }
    if (seg.empty()) {
      continue;
    }
    const std::size_t eq = seg.find('=');
    const std::string key = eq == std::string::npos ? seg : seg.substr(0, eq);
    const std::string val = eq == std::string::npos ? std::string() : seg.substr(eq + 1);
    if (key == "seed") {
      std::size_t i = 0;
      if (!ParseU64(val, &i, &out->seed) || i != val.size()) {
        *error = "bad storm seed in \"" + seg + "\"";
        return false;
      }
    } else if (key == "span") {
      std::size_t i = 0;
      if (!ParseTime(val, &i, &out->span) || i != val.size() || out->span == 0) {
        *error = "bad storm span in \"" + seg + "\" (want e.g. span=80ms)";
        return false;
      }
    } else {
      *error = "unknown chaos option \"" + key + "\" (want seed= or span=)";
      return false;
    }
  }
  if (!any_component) {
    *error = "chaos spec \"" + spec + "\" lists no components (io=, pressure=, poison=)";
    return false;
  }
  return true;
}

std::string FormatChaosSpec(const ChaosSpec& spec) {
  std::string out;
  auto comp = [&out](const char* name, std::uint64_t count) {
    if (count == 0) {
      return;
    }
    if (!out.empty()) {
      out += ",";
    }
    out += name;
    out += "=";
    out += std::to_string(count);
  };
  comp("io", spec.io);
  comp("pressure", spec.pressure);
  comp("poison", spec.poison);
  if (out.empty()) {
    out = "io=0";  // disarmed, but still parseable
  }
  out += ":seed=" + std::to_string(spec.seed);
  out += ":span=" + FormatTime(spec.span);
  return out;
}

ChaosStorm BuildChaosStorm(const ChaosSpec& spec, const ChaosGeometry& geom) {
  ChaosStorm storm;
  if (spec.io != 0) {
    Rng rng(spec.seed ^ kIoStream);
    // Background Bernoulli failure rate on every device and direction,
    // scaled by the component count, with occasional permanent faults that
    // exercise bad-block remapping.
    for (FaultPlan* plan : {&storm.io_fs, &storm.io_swap}) {
      plan->read_num = spec.io;
      plan->read_den = 1000;
      plan->write_num = spec.io;
      plan->write_den = 1000;
      plan->permanent_num = 1;
      plan->permanent_den = 8;
    }
    // Plus `io` scheduled nth-op faults scattered over both devices.
    for (std::uint64_t i = 0; i < spec.io; ++i) {
      FaultPlan& plan = rng.Below(2) == 0 ? storm.io_fs : storm.io_swap;
      FaultSpec f;
      f.nth = 1 + rng.Below(400);
      f.permanent = rng.Chance(1, 4);
      if (rng.Below(2) == 0) {
        plan.fail_reads.push_back(f);
      } else {
        plan.fail_writes.push_back(f);
      }
    }
  }
  if (spec.pressure != 0) {
    SIM_ASSERT_MSG(geom.phys_pages != 0 && geom.swap_slots != 0,
                   "chaos pressure storm needs the machine geometry");
    Rng rng(spec.seed ^ kPressureStream);
    for (std::uint64_t i = 0; i < spec.pressure; ++i) {
      PressureEvent ev;
      ev.at = DrawEventTime(rng, spec.span);
      ev.op = PressureOp::kSetAvail;
      if (rng.Below(2) == 0) {
        // Clamp physical memory into [1/8, 1/2] of the machine.
        ev.res = PressureResource::kPhysPages;
        const std::uint64_t lo = geom.phys_pages / 8;
        ev.amount = lo + rng.Below(geom.phys_pages / 2 - lo + 1);
      } else {
        // Clamp swap into [1/4, 3/4] of the device.
        ev.res = PressureResource::kSwapSlots;
        const std::uint64_t lo = geom.swap_slots / 4;
        ev.amount = lo + rng.Below(geom.swap_slots * 3 / 4 - lo + 1);
      }
      storm.pressure.events.push_back(ev);
    }
    // Restore both pools after the storm window so runs end on a healthy
    // machine (survival means riding the storm out, not just outliving it).
    const Nanoseconds restore_at = spec.span + spec.span / 5;
    storm.pressure.events.push_back(PressureEvent{
        restore_at, PressureResource::kPhysPages, PressureOp::kSetAvail, geom.phys_pages});
    storm.pressure.events.push_back(PressureEvent{
        restore_at, PressureResource::kSwapSlots, PressureOp::kSetAvail, geom.swap_slots});
  }
  if (spec.poison != 0) {
    Rng rng(spec.seed ^ kPoisonStream);
    for (std::uint64_t i = 0; i < spec.poison; ++i) {
      MemFaultEvent ev;
      ev.at = DrawEventTime(rng, spec.span);
      ev.random = true;
      ev.count = 1 + rng.Below(3);
      storm.mem.events.push_back(ev);
    }
  }
  return storm;
}

// --- Repro strings --------------------------------------------------------

std::string FormatRepro(const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string out = kReproPrefix;
  for (const auto& [key, value] : kv) {
    SIM_ASSERT_MSG(!key.empty() && key.find_first_of("|=") == std::string::npos,
                   "repro key must be a bare identifier");
    SIM_ASSERT_MSG(value.find('|') == std::string::npos, "repro value must not contain '|'");
    out += "|" + key + "=" + value;
  }
  return out;
}

bool ParseRepro(const std::string& repro,
                std::vector<std::pair<std::string, std::string>>* out, std::string* error) {
  out->clear();
  std::size_t pos = 0;
  std::size_t bar = repro.find('|');
  const std::string head = repro.substr(0, bar == std::string::npos ? repro.size() : bar);
  if (head != kReproPrefix) {
    *error = "repro string must start with \"" + std::string(kReproPrefix) + "\"";
    return false;
  }
  if (bar == std::string::npos) {
    return true;
  }
  pos = bar + 1;
  while (pos <= repro.size()) {
    bar = repro.find('|', pos);
    if (bar == std::string::npos) {
      bar = repro.size();
    }
    const std::string field = repro.substr(pos, bar - pos);
    pos = bar + 1;
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos || eq == 0) {
      *error = "bad repro field \"" + field + "\" (want key=value)";
      return false;
    }
    out->emplace_back(field.substr(0, eq), field.substr(eq + 1));
  }
  return true;
}

const std::string* ReproValue(const std::vector<std::pair<std::string, std::string>>& kv,
                              const std::string& key) {
  const std::string* found = nullptr;
  for (const auto& [k, v] : kv) {
    if (k == key) {
      found = &v;
    }
  }
  return found;
}

// --- Scenario shrinking ---------------------------------------------------

namespace {

// The fixed candidate list, most-aggressive first: dropping a whole storm
// component beats halving it, halving beats tweaking the schedule. Each
// candidate differing from `cur` is offered once per pass.
std::vector<ChaosScenario> ShrinkCandidates(const ChaosScenario& cur) {
  std::vector<ChaosScenario> out;
  auto push = [&out, &cur](ChaosScenario next) {
    if (!(next == cur)) {
      out.push_back(next);
    }
  };
  {
    ChaosScenario c = cur;
    c.chaos.io = 0;
    push(c);
  }
  {
    ChaosScenario c = cur;
    c.chaos.pressure = 0;
    push(c);
  }
  {
    ChaosScenario c = cur;
    c.chaos.poison = 0;
    push(c);
  }
  if (cur.ops > 1) {
    ChaosScenario c = cur;
    c.ops = std::max<std::uint64_t>(1, cur.ops / 2);
    push(c);
  }
  if (cur.chaos.io > 1) {
    ChaosScenario c = cur;
    c.chaos.io /= 2;
    push(c);
  }
  if (cur.chaos.pressure > 1) {
    ChaosScenario c = cur;
    c.chaos.pressure /= 2;
    push(c);
  }
  if (cur.chaos.poison > 1) {
    ChaosScenario c = cur;
    c.chaos.poison /= 2;
    push(c);
  }
  if (cur.chaos.span > 1'000'000) {  // floor: 1ms
    ChaosScenario c = cur;
    c.chaos.span = std::max<Nanoseconds>(1'000'000, cur.chaos.span / 2);
    push(c);
  }
  if (cur.workers > cur.cpus) {  // 0 = engine default, never shrunk
    ChaosScenario c = cur;
    c.workers = std::max(cur.cpus, cur.workers / 2);
    push(c);
  }
  if (cur.cpus > 1) {
    ChaosScenario c = cur;
    c.cpus = std::max<std::size_t>(1, cur.cpus / 2);
    push(c);
  }
  if (cur.sched.strat != SchedStrategy::kRoundRobin) {
    ChaosScenario c = cur;
    c.sched.strat = SchedStrategy::kRoundRobin;
    c.sched.param = 0;
    push(c);
  }
  if (cur.sched.param > 1) {
    ChaosScenario c = cur;
    c.sched.param /= 2;
    push(c);
  }
  if (cur.shared_storm) {
    ChaosScenario c = cur;
    c.shared_storm = false;
    push(c);
  }
  return out;
}

}  // namespace

ChaosScenario ShrinkScenario(const ChaosScenario& start,
                             const std::function<bool(const ChaosScenario&)>& still_fails,
                             std::size_t* probes, std::size_t max_probes) {
  ChaosScenario cur = start;
  std::size_t used = 0;
  bool changed = true;
  while (changed && used < max_probes) {
    changed = false;
    for (const ChaosScenario& cand : ShrinkCandidates(cur)) {
      if (used >= max_probes) {
        break;
      }
      ++used;
      if (still_fails(cand)) {
        cur = cand;
        changed = true;
        break;  // restart the pass from the new, smaller scenario
      }
    }
  }
  if (probes != nullptr) {
    *probes = used;
  }
  return cur;
}

}  // namespace sim
