#include "src/sim/fault.h"

#include "src/sim/assert.h"

namespace sim {

std::optional<InjectedFault> FaultInjector::OnOp(IoDevice dev, IoDir dir,
                                                std::uint64_t blkno, std::uint64_t nblks,
                                                Stats& stats) {
  State& st = state_[Index(dev)];
  const std::uint64_t opno =
      (dir == IoDir::kRead) ? ++st.read_ops : ++st.write_ops;

  // Operations touching a block already marked bad always fail, without
  // consuming scheduled specs or random draws: the medium is damaged.
  if (blkno != kNoBlock && !st.bad_blocks.empty()) {
    for (std::uint64_t b = blkno; b < blkno + nblks; ++b) {
      if (st.bad_blocks.count(b) != 0) {
        ++stats.io_errors_injected;
        return InjectedFault{kErrIO, true, b};
      }
    }
  }

  bool fault = false;
  bool permanent = false;

  const auto& specs =
      (dir == IoDir::kRead) ? st.plan.fail_reads : st.plan.fail_writes;
  for (const FaultSpec& spec : specs) {
    if (spec.nth == opno) {
      fault = true;
      permanent = spec.permanent;
      break;
    }
  }

  if (!fault) {
    const std::uint64_t num =
        (dir == IoDir::kRead) ? st.plan.read_num : st.plan.write_num;
    const std::uint64_t den =
        (dir == IoDir::kRead) ? st.plan.read_den : st.plan.write_den;
    // Only draw from the RNG when a probabilistic plan is active, so runs
    // without fault plans consume no randomness and stay bit-identical to
    // pre-injector behaviour.
    if (num != 0 && rng_.Chance(num, den)) {
      fault = true;
      permanent = st.plan.permanent_num != 0 &&
                  rng_.Chance(st.plan.permanent_num, st.plan.permanent_den);
    }
  }

  if (!fault) {
    return std::nullopt;
  }

  ++stats.io_errors_injected;
  InjectedFault f;
  f.permanent = permanent;
  if (permanent && blkno != kNoBlock) {
    f.bad_block = blkno;
    st.bad_blocks.insert(blkno);
  }
  return f;
}

namespace {

bool ParseOneMemEvent(const std::string& tok, MemFaultEvent* ev, std::string* error) {
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
  if (tok.compare(i, 6, "poison") != 0) {
    *error = "expected 'poison' in \"" + tok + "\"";
    return false;
  }
  i += 6;
  SkipWs(tok, &i);
  if (tok.compare(i, 7, "random:") == 0) {
    i += 7;
    ev->random = true;
    if (!ParseU64(tok, &i, &ev->count) || ev->count == 0) {
      *error = "bad count in \"" + tok + "\"";
      return false;
    }
  } else {
    ev->random = false;
    if (!ParseU64(tok, &i, &ev->pfn)) {
      *error = "bad pfn in \"" + tok + "\"";
      return false;
    }
  }
  SkipWs(tok, &i);
  if (i != tok.size()) {
    *error = "trailing junk in \"" + tok + "\"";
    return false;
  }
  return true;
}

}  // namespace

bool ParseMemFaultPlan(const std::string& spec, MemFaultPlan* out, std::string* error) {
  out->events.clear();
  return ForEachPlanItem(spec, ';', [out, error](const std::string& tok) {
    MemFaultEvent ev;
    if (!ParseOneMemEvent(tok, &ev, error)) {
      return false;
    }
    out->events.push_back(ev);
    return true;
  });
}

void FaultInjector::ApplyDueMem(Nanoseconds now, Stats& stats, Tracer& tracer) {
  mem_events_.ApplyDue(now, [&](const MemFaultEvent& ev) {
    SIM_ASSERT_MSG(mem_actuator_ != nullptr,
                   "memfault plan installed with no registered actuator");
    mem_actuator_(ev, rng_);
    ++stats.memfault_events;
    if (tracer.enabled()) {
      tracer.Instant(CostCat::kPoison, "memfault", now, ev.random ? ev.count : 1);
    }
  });
}

}  // namespace sim
