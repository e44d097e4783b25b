// The resource-pressure engine (DESIGN.md §12): pressure-plan parsing,
// scripted phys/swap ballooning through the engine, graceful pool-
// exhaustion recovery on the fault path, and the deterministic out-of-swap
// killer. The killer scenarios run on both VM systems and are checked for
// policy (largest anonymous RSS dies, ties keep the lowest pid) and for
// bit-exact reproducibility across runs.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/harness/dump.h"
#include "src/harness/world.h"
#include "src/phys/phys_mem.h"
#include "src/sim/pressure.h"
#include "tests/ref_model.h"

namespace {

using harness::VmKind;
using harness::World;
using harness::WorldConfig;

// --- Plan parsing ---

TEST(PressurePlanTest, ParsesEventsWithUnitsAndOps) {
  sim::PressurePlan plan;
  std::string error;
  ASSERT_TRUE(sim::ParsePressurePlan(
      "@5us swap-=1; @2ms phys+=2 ;@1s swap=3;@7 phys-=4;", &plan, &error))
      << error;
  ASSERT_EQ(4u, plan.events.size());
  EXPECT_EQ(5'000, plan.events[0].at);
  EXPECT_EQ(sim::PressureResource::kSwapSlots, plan.events[0].res);
  EXPECT_EQ(sim::PressureOp::kShrink, plan.events[0].op);
  EXPECT_EQ(1u, plan.events[0].amount);
  EXPECT_EQ(2'000'000, plan.events[1].at);
  EXPECT_EQ(sim::PressureResource::kPhysPages, plan.events[1].res);
  EXPECT_EQ(sim::PressureOp::kGrow, plan.events[1].op);
  EXPECT_EQ(1'000'000'000, plan.events[2].at);
  EXPECT_EQ(sim::PressureOp::kSetAvail, plan.events[2].op);
  EXPECT_EQ(3u, plan.events[2].amount);
  EXPECT_EQ(7, plan.events[3].at);  // no suffix = nanoseconds
}

TEST(PressurePlanTest, EmptyAndBlankSpecsParseToNoEvents) {
  sim::PressurePlan plan;
  std::string error;
  ASSERT_TRUE(sim::ParsePressurePlan("", &plan, &error));
  EXPECT_TRUE(plan.empty());
  ASSERT_TRUE(sim::ParsePressurePlan(" ; ;; ", &plan, &error));
  EXPECT_TRUE(plan.empty());
}

TEST(PressurePlanTest, MalformedSpecsAreRejectedWithAMessage) {
  const char* bad[] = {
      "1ms phys-=4",       // missing '@'
      "@ms phys-=4",       // no digits in the time
      "@1ms disk-=4",      // unknown resource
      "@1ms phys*=4",      // unknown operator
      "@1ms phys-=",       // missing amount
      "@1ms phys-=4 oops", // trailing junk
      "@20000000000s phys-=1",          // N × unit overflows Nanoseconds
      "@99999999999999999999 phys-=1",  // time overflows 64 bits
      "@1ms phys-=99999999999999999999",  // amount overflows 64 bits
  };
  for (const char* spec : bad) {
    sim::PressurePlan plan;
    std::string error;
    EXPECT_FALSE(sim::ParsePressurePlan(spec, &plan, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

// --- Engine + actuators ---

TEST(PressureEngineTest, PlanEventsBalloonPhysAndSwapThroughPoll) {
  sim::Machine machine;
  phys::PhysMem pm(machine, 64);
  swp::SwapDevice sd(machine, 32);
  sim::PressurePlan plan;
  std::string error;
  ASSERT_TRUE(sim::ParsePressurePlan("@0 phys-=16; @0 swap-=8", &plan, &error));
  machine.pressure().SetPlan(plan);
  EXPECT_TRUE(machine.pressure().has_plan());
  EXPECT_EQ(2u, machine.pressure().pending_events());
  // The hot paths poll: the first allocation applies every due event.
  phys::Page* p = pm.AllocPage(phys::OwnerKind::kKernel, &pm, 0, false);
  ASSERT_NE(nullptr, p);
  EXPECT_EQ(2u, machine.stats().pressure_events);
  EXPECT_EQ(16u, pm.balloon_pages());
  EXPECT_EQ(8u, sd.balloon_slots());
  EXPECT_EQ(64u - 16u - 1u, pm.free_pages());
  EXPECT_EQ(32u - 8u, sd.free_slots());
  pm.FreePage(p);
}

TEST(PressureEngineTest, SetAvailClampsInServiceAmount) {
  sim::Machine machine;
  phys::PhysMem pm(machine, 64);
  swp::SwapDevice sd(machine, 32);
  sim::PressurePlan plan;
  std::string error;
  ASSERT_TRUE(sim::ParsePressurePlan("@0 swap=5", &plan, &error));
  machine.pressure().SetPlan(plan);
  (void)sd.AllocSlot();
  EXPECT_EQ(32u - 5u, sd.balloon_slots());
  EXPECT_EQ(4u, sd.free_slots());  // 5 in service, 1 already allocated
}

// A shrink larger than what is left in service takes the whole pool (down
// to the balloon floor) instead of wrapping the balloon target.
TEST(PressureEngineTest, ShrinkPastThePoolTakesTheWholePool) {
  sim::Machine machine;
  phys::PhysMem pm(machine, 64);
  sim::PressurePlan plan;
  std::string error;
  ASSERT_TRUE(sim::ParsePressurePlan("@0 phys-=5; @0 phys-=18446744073709551615", &plan, &error))
      << error;
  machine.pressure().SetPlan(plan);
  machine.PollPressure();
  EXPECT_EQ(64u, pm.balloon_target());
  EXPECT_EQ(60u, pm.balloon_pages());  // everything above the 4-frame floor
}

// The plan queue applies events in time order, events at the same time in
// the order written, and leaves an event that is not yet due pending.
TEST(PressureEngineTest, EventsApplyInTimeThenWrittenOrder) {
  struct Outcome {
    std::size_t balloon;
    std::size_t pending;
  };
  auto run = [](const char* spec, sim::Nanoseconds until) {
    sim::Machine machine;
    phys::PhysMem pm(machine, 64);
    sim::PressurePlan plan;
    std::string error;
    EXPECT_TRUE(sim::ParsePressurePlan(spec, &plan, &error)) << error;
    machine.pressure().SetPlan(plan);
    machine.clock().Advance(until);
    machine.PollPressure();
    return Outcome{pm.balloon_pages(), machine.pressure().pending_events()};
  };
  // Same time: shrink by 4 then leave 60 in service is a 4-page balloon;
  // the other way round it is 8.
  EXPECT_EQ(4u, run("@0 phys-=4; @0 phys=60", 0).balloon);
  EXPECT_EQ(8u, run("@0 phys=60; @0 phys-=4", 0).balloon);
  // Written out of time order: the 1ms pair applies (in written order),
  // then the 2ms grow; the 5ms shrink is not due yet.
  const Outcome o = run("@5ms phys-=30; @2ms phys+=1; @1ms phys-=4; @1ms phys=60", 2'000'000);
  EXPECT_EQ(3u, o.balloon);
  EXPECT_EQ(1u, o.pending);
}

// --- Worlds under a plan ---

TEST(PressureWorldTest, InstallingAPlanArmsDefaultsAndApplies) {
  WorldConfig cfg;
  cfg.ram_pages = 256;
  cfg.swap_slots = 256;
  cfg.pressure_plan = "@0ns phys-=64; @10ns phys+=32";
  World w(VmKind::kUvm, cfg);
  EXPECT_TRUE(w.kernel->oom_killer());
  EXPECT_GT(w.pm.free_reserve(), 0u);
  EXPECT_GT(w.pm.free_min(), 0u);
  EXPECT_GT(w.swap.reserved_slots(), 0u);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &addr, 16 * sim::kPageSize, kern::MapAttrs{}));
  ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(p, addr, 16 * sim::kPageSize, std::byte{0x42}));
  EXPECT_EQ(2u, w.machine.stats().pressure_events);
  EXPECT_EQ(32u, w.pm.balloon_pages());
}

// --- Out-of-swap killer ---

// Everything compared between two runs of the same scenario.
struct PressureOutcome {
  std::vector<int> dead_pids;
  std::uint64_t oom_kills = 0;
  std::uint64_t oom_pages_reclaimed = 0;
  std::uint64_t fault_retries = 0;
  std::uint64_t swap_full_events = 0;
  std::uint64_t page_alloc_failures = 0;
  std::uint64_t emergency_page_allocs = 0;
  sim::Nanoseconds virtual_ns = 0;
  std::string report;

  bool operator==(const PressureOutcome&) const = default;
};

WorldConfig PressureConfig(std::size_t ram_pages, std::size_t swap_slots) {
  WorldConfig cfg;
  cfg.ram_pages = ram_pages;
  cfg.swap_slots = swap_slots;
  return cfg;
}

// The reserve must sit strictly below the daemon's free target
// (ram/20 + 4), or the daemon stops reclaiming exactly where normal
// allocations still fail.
void SetReserves(World& w) {
  w.pm.set_free_reserve(4);
  w.pm.set_free_min(2);
  w.swap.set_reserved_slots(2);
}

// Spawn a process with `npages` of touched (resident) anonymous memory,
// mlocked so the pagedaemon cannot shrink its RSS out from under the
// victim-selection assertions.
kern::Proc* SpawnResident(World& w, std::size_t npages) {
  kern::Proc* p = w.kernel->Spawn();
  EXPECT_NE(nullptr, p);
  sim::Vaddr addr = 0;
  EXPECT_EQ(sim::kOk, w.kernel->MmapAnon(p, &addr, npages * sim::kPageSize, kern::MapAttrs{}));
  EXPECT_EQ(sim::kOk, w.kernel->TouchWrite(p, addr, npages * sim::kPageSize, std::byte{0x5a}));
  EXPECT_EQ(sim::kOk, w.kernel->Mlock(p, addr, npages * sim::kPageSize));
  return p;
}

PressureOutcome Collect(World& w, std::initializer_list<kern::Proc*> procs) {
  PressureOutcome out;
  for (kern::Proc* p : procs) {
    if (!p->alive) {
      out.dead_pids.push_back(p->pid);
    }
  }
  const sim::Stats& s = w.machine.stats();
  out.oom_kills = s.oom_kills;
  out.oom_pages_reclaimed = s.oom_pages_reclaimed;
  out.fault_retries = s.fault_retries;
  out.swap_full_events = s.swap_full_events;
  out.page_alloc_failures = s.page_alloc_failures;
  out.emergency_page_allocs = s.emergency_page_allocs;
  out.virtual_ns = w.machine.clock().now();
  std::ostringstream os;
  kern::DumpPressureStats(os, w.machine);
  out.report = os.str();
  return out;
}

class PressureTest : public ::testing::TestWithParam<VmKind> {};

// A small driver process keeps demanding fresh anonymous pages until
// physical memory and swap are both exhausted. The killer must pick the
// process with the largest anonymous RSS — not the faulter, not the first
// spawned — and the driver's fault then completes.
PressureOutcome RunLargestRssScenario(VmKind kind) {
  World w(kind, PressureConfig(/*ram_pages=*/96, /*swap_slots=*/16));
  SetReserves(w);
  w.kernel->set_oom_killer(true);
  kern::Proc* driver = w.kernel->Spawn();
  kern::Proc* big = SpawnResident(w, 48);
  kern::Proc* small = SpawnResident(w, 8);
  EXPECT_GT(w.vm->AnonResidentPages(*big->as), w.vm->AnonResidentPages(*small->as));

  sim::Vaddr addr = 0;
  EXPECT_EQ(sim::kOk, w.kernel->MmapAnon(driver, &addr, 64 * sim::kPageSize, kern::MapAttrs{}));
  for (int i = 0; i < 64 && big->alive; ++i) {
    EXPECT_EQ(sim::kOk,
              w.kernel->TouchWrite(driver, addr + static_cast<sim::Vaddr>(i) * sim::kPageSize, 1,
                                   std::byte{1}));
  }

  EXPECT_FALSE(big->alive) << "killer never fired";
  EXPECT_TRUE(small->alive);
  EXPECT_TRUE(driver->alive);
  EXPECT_EQ(nullptr, big->as);  // zombie shell, memory gone
  EXPECT_EQ(1u, w.machine.stats().oom_kills);
  EXPECT_GE(w.machine.stats().oom_pages_reclaimed, 48u);
  EXPECT_GT(w.machine.stats().fault_retries, 0u);
  EXPECT_GT(w.machine.stats().swap_full_events, 0u);
  w.CheckInvariants();
  return Collect(w, {driver, big, small});
}

TEST_P(PressureTest, KillerPicksLargestAnonymousRss) { RunLargestRssScenario(GetParam()); }

TEST_P(PressureTest, KillerBreaksRssTiesTowardLowestPid) {
  World w(GetParam(), PressureConfig(/*ram_pages=*/96, /*swap_slots=*/16));
  SetReserves(w);
  w.kernel->set_oom_killer(true);
  kern::Proc* driver = w.kernel->Spawn();
  kern::Proc* first = SpawnResident(w, 32);
  kern::Proc* second = SpawnResident(w, 32);
  EXPECT_EQ(w.vm->AnonResidentPages(*first->as), w.vm->AnonResidentPages(*second->as));
  EXPECT_LT(first->pid, second->pid);

  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(driver, &addr, 48 * sim::kPageSize, kern::MapAttrs{}));
  for (int i = 0; i < 48 && first->alive && second->alive; ++i) {
    ASSERT_EQ(sim::kOk,
              w.kernel->TouchWrite(driver, addr + static_cast<sim::Vaddr>(i) * sim::kPageSize, 1,
                                   std::byte{2}));
  }

  EXPECT_FALSE(first->alive) << "tie must go to the lowest pid";
  EXPECT_TRUE(second->alive);
  EXPECT_TRUE(driver->alive);
  EXPECT_EQ(1u, w.machine.stats().oom_kills);
}

// When the faulting process is itself the largest consumer, it is a valid
// victim: the fault comes back kErrNoMem, the caller observes a dead
// process, and the rest of the system stays intact.
TEST_P(PressureTest, FaultingVictimObservesErrorInsteadOfCompleting) {
  World w(GetParam(), PressureConfig(/*ram_pages=*/96, /*swap_slots=*/16));
  SetReserves(w);
  w.kernel->set_oom_killer(true);
  kern::Proc* hog = w.kernel->Spawn();
  kern::Proc* bystander = SpawnResident(w, 8);

  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(hog, &addr, 96 * sim::kPageSize, kern::MapAttrs{}));
  int last_err = sim::kOk;
  for (int i = 0; i < 96 && last_err == sim::kOk; ++i) {
    last_err = w.kernel->TouchWrite(hog, addr + static_cast<sim::Vaddr>(i) * sim::kPageSize, 1,
                                    std::byte{3});
  }

  EXPECT_EQ(sim::kErrNoMem, last_err);
  EXPECT_FALSE(hog->alive);
  EXPECT_TRUE(bystander->alive);
  EXPECT_EQ(1u, w.machine.stats().oom_kills);
  w.CheckInvariants();
}

// Same scenario, two fresh worlds: every counter, the victim set, the
// virtual clock, and the human-readable pressure report must agree exactly.
TEST_P(PressureTest, OutOfSwapKillIsDeterministic) {
  PressureOutcome a = RunLargestRssScenario(GetParam());
  PressureOutcome b = RunLargestRssScenario(GetParam());
  EXPECT_EQ(a, b);
  EXPECT_EQ(1u, a.oom_kills);
}

// Without the killer armed (the default), the same exhaustion surfaces as
// a typed error and no process is harmed — the legacy capacity-test
// contract.
TEST_P(PressureTest, DisarmedKillerSurfacesTypedErrorInstead) {
  World w(GetParam(), PressureConfig(/*ram_pages=*/96, /*swap_slots=*/16));
  SetReserves(w);
  ASSERT_FALSE(w.kernel->oom_killer());
  kern::Proc* hog = w.kernel->Spawn();
  sim::Vaddr addr = 0;
  // More anonymous demand than ram + swap can back: exhaustion guaranteed.
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(hog, &addr, 160 * sim::kPageSize, kern::MapAttrs{}));
  int last_err = sim::kOk;
  for (int i = 0; i < 160 && last_err == sim::kOk; ++i) {
    last_err = w.kernel->TouchWrite(hog, addr + static_cast<sim::Vaddr>(i) * sim::kPageSize, 1,
                                    std::byte{4});
  }
  EXPECT_EQ(sim::kErrNoMem, last_err);
  EXPECT_TRUE(hog->alive);
  EXPECT_EQ(0u, w.machine.stats().oom_kills);
  w.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(BothVms, PressureTest, ::testing::Values(VmKind::kBsd, VmKind::kUvm),
                         refmodel::VmName);

}  // namespace
