// Plan text and timed plans (DESIGN.md §12, §13, §17). Every plan-valued
// flag — --pressure, --memfault, --chaos, --sched — is read with the small
// lexicon below: whitespace, unsigned decimals, the N[ns|us|ms|s] time
// literal, and separator-delimited items. Both scripted engines (the
// PressureEngine and the memory-fault side of the FaultInjector) replay
// their plans through one TimedEventQueue. Each parser and engine keeps
// only its own event syntax and actuation.
#ifndef SRC_SIM_PLAN_H_
#define SRC_SIM_PLAN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/types.h"

namespace sim {

// --- Plan text ---

// Advance *i past any whitespace.
void SkipWs(const std::string& s, std::size_t* i);

// Read the unsigned decimal at *i and advance past it. False when there is
// no digit or the value does not fit in 64 bits.
bool ParseU64(const std::string& s, std::size_t* i, std::uint64_t* out);

// Read the time literal "N[ns|us|ms|s]" at *i (no suffix = ns) and advance
// past it. False when N is missing or N × unit does not fit in Nanoseconds.
bool ParseTime(const std::string& s, std::size_t* i, Nanoseconds* out);

// The inverse of ParseTime: `ns` in the largest unit that divides it.
std::string FormatTime(Nanoseconds ns);

// Call fn on each `sep`-separated item of `spec`, skipping blank ones (an
// empty spec, doubled or trailing separators). Returns false as soon as fn
// rejects an item.
bool ForEachPlanItem(const std::string& spec, char sep,
                     const std::function<bool(const std::string&)>& fn);

// --- Timed plans ---

// A scripted plan's events in the order they apply, and a cursor to the
// next one. `Event` has a `Nanoseconds at` member.
template <typename Event>
class TimedEventQueue {
 public:
  // Replace the plan and restart from its first event. The sort is stable:
  // events at the same time apply in the order written.
  void Install(std::vector<Event> events) {
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) { return a.at < b.at; });
    events_ = std::move(events);
    next_ = 0;
  }

  bool empty() const { return events_.empty(); }
  // Events not yet applied.
  std::size_t pending() const { return events_.size() - next_; }

  // True when the next event is due at or before `now`. With no plan this
  // is the one compare an idle engine pays per poll.
  bool Due(Nanoseconds now) const { return next_ < events_.size() && events_[next_].at <= now; }

  // Hand every event due at or before `now` to apply(event), in order. The
  // cursor passes an event before it is applied.
  template <typename Fn>
  void ApplyDue(Nanoseconds now, Fn&& apply) {
    while (Due(now)) {
      apply(events_[next_++]);
    }
  }

 private:
  std::vector<Event> events_;
  std::size_t next_ = 0;
};

}  // namespace sim

#endif  // SRC_SIM_PLAN_H_
