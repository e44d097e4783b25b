// Deterministic virtual-time tracing and cost attribution (DESIGN.md §11).
//
// Two cooperating layers, both stamped exclusively by the virtual clock so
// the output is bit-identical across hosts and runs:
//
//  - CostBreakdown: per-category accumulation of every Machine::Charge.
//    Always on — it is a pair of array adds per charge, touches nothing the
//    simulation can observe, and lets every bench print "where the virtual
//    time went" (e.g. Table 3's read/private row decomposes into the
//    shadow-object allocation BSD does and UVM skips).
//
//  - Tracer: an opt-in structured event log (span begin/end, instant and
//    counter events) in a bounded ring buffer, exported as Chrome-trace /
//    Perfetto JSON. Disabled it records nothing; enabled it still never
//    reads host time, never charges the clock, and never touches Stats, so
//    tracing is observer-effect-free by construction (asserted by
//    tests/trace_test.cpp and the CI observer-effect check).
#ifndef SRC_SIM_TRACE_H_
#define SRC_SIM_TRACE_H_

#include <array>
#include <cstdint>
#include <ostream>
#include <vector>

#include "src/sim/assert.h"
#include "src/sim/types.h"

namespace sim {

// Cost categories. A charge is attributed to the innermost enclosing
// ChargeScope's category, unless the charging site names a category
// explicitly (leaf mechanisms: pmap, page copies, lock round-trips).
enum class CostCat : std::uint8_t {
  kOther = 0,  // no enclosing scope
  kFault,      // fault-handler path (chain walk, promotions, bookkeeping)
  kPagein,     // pager gets: vnode reads, swap-in, clustered pagein
  kPageout,    // pagedaemon + terminate-time flushes, retries, backoff
  kMap,        // map/unmap/protect entry manipulation
  kPmap,       // MMU updates (enter/remove/protect/extract/ptpage)
  kCopy,       // page copies and zero-fills
  kLock,       // lock round-trips
  kLoan,       // §7 loanout / transfer / zero-copy send
  kFork,       // address-space duplication
  kAlloc,      // object/shadow/anon/amap/pager allocation
  kIo,         // raw device I/O outside pagein/pageout (physio, file I/O)
  kPoison,     // memory-error containment (unmap, discard, refetch, kill)
  kAudit,      // cross-layer auditor (trace spans only; never charged)
};
inline constexpr std::size_t kNumCostCats = 14;

const char* CostCatName(CostCat c);

// Per-category virtual-time totals and charge counts.
struct CostBreakdown {
  std::array<std::uint64_t, kNumCostCats> ns{};
  std::array<std::uint64_t, kNumCostCats> charges{};

  void Add(CostCat c, Nanoseconds n) {
    ns[static_cast<std::size_t>(c)] += static_cast<std::uint64_t>(n);
    ++charges[static_cast<std::size_t>(c)];
  }

  std::uint64_t ns_of(CostCat c) const { return ns[static_cast<std::size_t>(c)]; }
  std::uint64_t charges_of(CostCat c) const { return charges[static_cast<std::size_t>(c)]; }

  // Invariant (tested): equals the virtual time the machine has charged.
  std::uint64_t total_ns() const {
    std::uint64_t t = 0;
    for (std::uint64_t v : ns) {
      t += v;
    }
    return t;
  }

  // Per-category delta vs an earlier snapshot of the same breakdown.
  CostBreakdown Since(const CostBreakdown& earlier) const {
    CostBreakdown d;
    for (std::size_t i = 0; i < kNumCostCats; ++i) {
      d.ns[i] = ns[i] - earlier.ns[i];
      d.charges[i] = charges[i] - earlier.charges[i];
    }
    return d;
  }

  void Reset() { *this = CostBreakdown{}; }
};

enum class TraceEventKind : std::uint8_t { kSpanBegin, kSpanEnd, kInstant };

struct TraceEvent {
  TraceEventKind kind;
  CostCat cat;
  const char* name;  // must point at a static-lifetime string
  Nanoseconds ts;    // virtual time
  std::uint64_t value;  // instant payload (pages, bytes, ...)
};

// Bounded ring buffer of trace events. Recording drops the *oldest* event
// once full (the tail of a run is usually the interesting part) and counts
// the drops. All recording is O(1), allocation happens only in Enable().
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  void Enable(std::size_t capacity = kDefaultCapacity) {
    SIM_ASSERT(capacity > 0);
    buf_.clear();
    buf_.reserve(capacity);
    capacity_ = capacity;
    head_ = 0;
    dropped_ = 0;
    enabled_ = true;
  }

  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  void SpanBegin(CostCat cat, const char* name, Nanoseconds ts) {
    Record({TraceEventKind::kSpanBegin, cat, name, ts, 0});
  }
  void SpanEnd(CostCat cat, const char* name, Nanoseconds ts) {
    Record({TraceEventKind::kSpanEnd, cat, name, ts, 0});
  }
  void Instant(CostCat cat, const char* name, Nanoseconds ts, std::uint64_t value = 0) {
    Record({TraceEventKind::kInstant, cat, name, ts, value});
  }

  std::size_t size() const { return buf_.size(); }
  std::uint64_t dropped() const { return dropped_; }
  std::size_t capacity() const { return capacity_; }

  // Oldest-to-newest event access (ring-order resolved).
  const TraceEvent& at(std::size_t i) const {
    SIM_ASSERT(i < buf_.size());
    return buf_[(head_ + i) % buf_.size()];
  }

 private:
  void Record(const TraceEvent& e) {
    if (!enabled_) {
      return;
    }
    if (buf_.size() < capacity_) {
      buf_.push_back(e);
    } else {
      buf_[head_] = e;
      head_ = (head_ + 1) % capacity_;
      ++dropped_;
    }
  }

  bool enabled_ = false;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  // index of the oldest event once the ring wrapped
  std::uint64_t dropped_ = 0;
  std::vector<TraceEvent> buf_;
};

// Chrome-trace ("Trace Event Format") JSON. WriteChromeTrace emits one
// self-contained {"traceEvents": [...]} document; the Append/Open/Close
// trio lets a bench merge several machines into one file, one pid each.
// Output is byte-deterministic: integer-math timestamp formatting, no
// locale-sensitive double printing.
void OpenChromeTrace(std::ostream& os);
// Returns the number of events written; `first` tracks comma placement
// across calls and must start true.
std::size_t AppendChromeTraceEvents(std::ostream& os, const Tracer& tracer, int pid,
                                    const char* process_name, bool* first);
void CloseChromeTrace(std::ostream& os);
void WriteChromeTrace(std::ostream& os, const Tracer& tracer);

}  // namespace sim

#endif  // SRC_SIM_TRACE_H_
