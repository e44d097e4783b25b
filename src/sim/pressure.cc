#include "src/sim/pressure.h"

#include "src/sim/assert.h"

namespace sim {

namespace {

bool ParseOneEvent(const std::string& tok, PressureEvent* ev, std::string* error) {
  std::size_t i = 0;
  SkipWs(tok, &i);
  if (i >= tok.size() || tok[i] != '@') {
    *error = "expected '@TIME' in \"" + tok + "\"";
    return false;
  }
  ++i;
  if (!ParseTime(tok, &i, &ev->at)) {
    *error = "bad time in \"" + tok + "\"";
    return false;
  }
  SkipWs(tok, &i);
  if (tok.compare(i, 4, "phys") == 0) {
    ev->res = PressureResource::kPhysPages;
    i += 4;
  } else if (tok.compare(i, 4, "swap") == 0) {
    ev->res = PressureResource::kSwapSlots;
    i += 4;
  } else {
    *error = "expected resource 'phys' or 'swap' in \"" + tok + "\"";
    return false;
  }
  SkipWs(tok, &i);
  if (tok.compare(i, 2, "-=") == 0) {
    ev->op = PressureOp::kShrink;
    i += 2;
  } else if (tok.compare(i, 2, "+=") == 0) {
    ev->op = PressureOp::kGrow;
    i += 2;
  } else if (i < tok.size() && tok[i] == '=') {
    ev->op = PressureOp::kSetAvail;
    i += 1;
  } else {
    *error = "expected '-=', '+=' or '=' in \"" + tok + "\"";
    return false;
  }
  SkipWs(tok, &i);
  if (!ParseU64(tok, &i, &ev->amount)) {
    *error = "bad amount in \"" + tok + "\"";
    return false;
  }
  SkipWs(tok, &i);
  if (i != tok.size()) {
    *error = "trailing junk in \"" + tok + "\"";
    return false;
  }
  return true;
}

}  // namespace

bool ParsePressurePlan(const std::string& spec, PressurePlan* out, std::string* error) {
  out->events.clear();
  return ForEachPlanItem(spec, ';', [out, error](const std::string& tok) {
    PressureEvent ev;
    if (!ParseOneEvent(tok, &ev, error)) {
      return false;
    }
    out->events.push_back(ev);
    return true;
  });
}

void PressureEngine::ApplyDue(Nanoseconds now, Stats& stats, Tracer& tracer) {
  events_.ApplyDue(now, [&](const PressureEvent& ev) {
    const Actuator& fn = actuators_[static_cast<std::size_t>(ev.res)];
    SIM_ASSERT_MSG(fn != nullptr, "pressure plan targets a resource with no registered actuator");
    fn(ev);
    ++stats.pressure_events;
    if (tracer.enabled()) {
      tracer.Instant(CostCat::kOther,
                     ev.res == PressureResource::kPhysPages ? "pressure_phys" : "pressure_swap",
                     now, ev.amount);
    }
  });
}

}  // namespace sim
