#include "src/sim/trace.h"

#include <cinttypes>
#include <cstdio>

namespace sim {

const char* CostCatName(CostCat c) {
  switch (c) {
    case CostCat::kOther:
      return "other";
    case CostCat::kFault:
      return "fault";
    case CostCat::kPagein:
      return "pagein";
    case CostCat::kPageout:
      return "pageout";
    case CostCat::kMap:
      return "map";
    case CostCat::kPmap:
      return "pmap";
    case CostCat::kCopy:
      return "copy";
    case CostCat::kLock:
      return "lock";
    case CostCat::kLoan:
      return "loan";
    case CostCat::kFork:
      return "fork";
    case CostCat::kAlloc:
      return "alloc";
    case CostCat::kIo:
      return "io";
    case CostCat::kPoison:
      return "poison";
    case CostCat::kAudit:
      return "audit";
  }
  return "?";
}

namespace {

// Chrome trace "ts" is in microseconds. Format ns as fixed-point micros
// with integer math only — snprintf %f would be locale- and
// rounding-mode-dependent, this never is.
void AppendMicros(std::ostream& os, Nanoseconds ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03" PRIu64,
                static_cast<std::uint64_t>(ns) / 1000, static_cast<std::uint64_t>(ns) % 1000);
  os << buf;
}

const char* PhaseOf(TraceEventKind k) {
  switch (k) {
    case TraceEventKind::kSpanBegin:
      return "B";
    case TraceEventKind::kSpanEnd:
      return "E";
    case TraceEventKind::kInstant:
      return "i";
  }
  return "?";
}

}  // namespace

void OpenChromeTrace(std::ostream& os) {
  os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
}

std::size_t AppendChromeTraceEvents(std::ostream& os, const Tracer& tracer, int pid,
                                    const char* process_name, bool* first) {
  if (process_name != nullptr) {
    if (!*first) {
      os << ",";
    }
    *first = false;
    os << "\n{\"ph\": \"M\", \"pid\": " << pid
       << ", \"tid\": 0, \"name\": \"process_name\", \"args\": {\"name\": \"" << process_name
       << "\"}}";
  }
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    const TraceEvent& e = tracer.at(i);
    if (!*first) {
      os << ",";
    }
    *first = false;
    os << "\n{\"ph\": \"" << PhaseOf(e.kind) << "\", \"pid\": " << pid
       << ", \"tid\": 0, \"ts\": ";
    AppendMicros(os, e.ts);
    os << ", \"cat\": \"" << CostCatName(e.cat) << "\", \"name\": \"" << e.name << "\"";
    switch (e.kind) {
      case TraceEventKind::kInstant:
        os << ", \"s\": \"t\", \"args\": {\"value\": " << e.value << "}";
        break;
      case TraceEventKind::kSpanBegin:
      case TraceEventKind::kSpanEnd:
        break;
    }
    os << "}";
  }
  if (tracer.dropped() > 0) {
    if (!*first) {
      os << ",";
    }
    *first = false;
    os << "\n{\"ph\": \"M\", \"pid\": " << pid
       << ", \"tid\": 0, \"name\": \"trace_dropped_events\", \"args\": {\"value\": "
       << tracer.dropped() << "}}";
  }
  return tracer.size();
}

void CloseChromeTrace(std::ostream& os) { os << "\n]}\n"; }

void WriteChromeTrace(std::ostream& os, const Tracer& tracer) {
  OpenChromeTrace(os);
  bool first = true;
  AppendChromeTraceEvents(os, tracer, /*pid=*/0, /*process_name=*/nullptr, &first);
  CloseChromeTrace(os);
}

}  // namespace sim
