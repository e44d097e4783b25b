// Deterministic resource pressure. A PressureEngine hangs off the Machine
// and replays a scripted *pressure plan*: a sorted list of virtual-time
// points at which a fixed pool (physical pages, swap slots) shrinks or
// grows. The resource owners (phys::PhysMem, swp::SwapDevice) register
// actuator callbacks at construction; the hot paths call
// Machine::PollPressure(), which applies every event whose time has come.
//
// Shrinking is implemented by the owners as *ballooning*: free frames or
// slots are absorbed into an inert balloon rather than yanked out from
// under live data, so a shrink is always safe and always deterministic —
// the deficit is absorbed as the pagedaemon frees memory. Growing deflates
// the balloon.
//
// Like the fault injector, the engine is inert by default: with no plan
// installed, Poll() is a single predicted-not-taken branch, no virtual
// time is charged, and no stats move — a pressure-free run is
// byte-identical to a build without the engine.
#ifndef SRC_SIM_PRESSURE_H_
#define SRC_SIM_PRESSURE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/plan.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"
#include "src/sim/types.h"

namespace sim {

// Which fixed pool an event actuates.
enum class PressureResource : std::uint8_t {
  kPhysPages = 0,  // physical page frames (phys::PhysMem)
  kSwapSlots = 1,  // swap slots (swp::SwapDevice)
};
inline constexpr std::size_t kNumPressureResources = 2;

enum class PressureOp : std::uint8_t {
  kShrink,    // take `amount` units out of service
  kGrow,      // return `amount` units to service
  kSetAvail,  // balloon so that exactly `amount` units remain in service
};

// One scripted event: at virtual time `at`, apply `op` to `res`.
struct PressureEvent {
  Nanoseconds at = 0;
  PressureResource res = PressureResource::kPhysPages;
  PressureOp op = PressureOp::kShrink;
  std::uint64_t amount = 0;
};

struct PressurePlan {
  std::vector<PressureEvent> events;

  bool empty() const { return events.empty(); }
};

// The balloon target `ev` asks of a pool of `capacity` units whose balloon
// currently targets `current`: a shrink adds to the balloon, a grow deflates
// it (never below empty), a set leaves exactly `amount` units in service.
// Never more than the whole pool, so a shrink larger than what is left in
// service takes the whole pool rather than wrapping. Both resource owners
// size their balloon with this one rule.
inline std::size_t BalloonTarget(std::size_t current, std::size_t capacity,
                                 const PressureEvent& ev) {
  const auto amount = static_cast<std::size_t>(ev.amount);
  std::size_t target = current;
  switch (ev.op) {
    case PressureOp::kShrink:
      target = amount >= capacity - std::min(target, capacity) ? capacity : target + amount;
      break;
    case PressureOp::kGrow:
      target -= std::min(target, amount);
      break;
    case PressureOp::kSetAvail:
      target = capacity > ev.amount ? capacity - amount : 0;
      break;
  }
  return std::min(target, capacity);
}

// Parse a plan spec of ';'-separated events:
//
//   @TIME RES OP AMOUNT      e.g.  "@0ms phys-=7168; @5ms swap=1700"
//
// TIME takes an optional unit suffix (ns, us, ms, s; default ns); RES is
// "phys" or "swap"; OP is "-=" (shrink), "+=" (grow) or "=" (set the
// in-service amount). Whitespace around tokens is ignored. Returns false
// and fills *error on malformed input.
bool ParsePressurePlan(const std::string& spec, PressurePlan* out, std::string* error);

class PressureEngine {
 public:
  using Actuator = std::function<void(const PressureEvent&)>;

  PressureEngine() = default;
  PressureEngine(const PressureEngine&) = delete;
  PressureEngine& operator=(const PressureEngine&) = delete;

  // Install a plan; events are applied in (time, spec order). Replaces any
  // previous plan and restarts from the first event.
  void SetPlan(const PressurePlan& plan) { events_.Install(plan.events); }

  // The owner of `res` registers how to actually shrink/grow its pool.
  void RegisterActuator(PressureResource res, Actuator fn) {
    actuators_[static_cast<std::size_t>(res)] = std::move(fn);
  }

  bool has_plan() const { return !events_.empty(); }
  // Events not yet applied.
  std::size_t pending_events() const { return events_.pending(); }

  // Apply every event due at or before `now`. Charges nothing; counts
  // stats.pressure_events and emits one trace instant per event applied.
  void Poll(Nanoseconds now, Stats& stats, Tracer& tracer) {
    if (events_.Due(now)) {
      ApplyDue(now, stats, tracer);
    }
  }

 private:
  void ApplyDue(Nanoseconds now, Stats& stats, Tracer& tracer);

  TimedEventQueue<PressureEvent> events_;
  Actuator actuators_[kNumPressureResources];
};

}  // namespace sim

#endif  // SRC_SIM_PRESSURE_H_
