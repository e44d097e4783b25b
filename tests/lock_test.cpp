// The lock-discipline capability layer (src/sim/lock.h, DESIGN.md §15):
// charge semantics, per-lock and aggregate counters, the runtime rank
// validator's panics, LockToken witnesses, registry retirement, batched
// round trips against the LockGuard scopes they stand for, the frame
// generation tag behind FrameIsCurrent, and whole-fleet lock attribution
// (every registered lock class is exercised; double runs are identical).
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/world.h"
#include "src/kern/fleet.h"
#include "src/sim/lock.h"
#include "src/sim/machine.h"

namespace {

using harness::VmKind;
using harness::World;

TEST(LockTest, AcquireChargesTheConfiguredCost) {
  sim::Machine m;
  const sim::Nanoseconds cost = 123;
  sim::SimLock lock(m, "t.costed", sim::LockRank::kMap, &cost);
  {
    sim::LockGuard g(lock);
    EXPECT_EQ(123u, m.clock().now());
    EXPECT_TRUE(lock.IsHeld());
  }
  EXPECT_FALSE(lock.IsHeld());
  EXPECT_EQ(1u, lock.acquisitions());
  EXPECT_EQ(1u, m.stats().lock_acquisitions);
}

TEST(LockTest, ZeroCostLockNeverTouchesTheClock) {
  sim::Machine m;
  sim::SimLock lock(m, "t.free", sim::LockRank::kPageQueue);
  sim::LockGuard g(lock);
  EXPECT_EQ(0u, m.clock().now());
  // No charge was issued at all: a zero-ns Charge() would still perturb the
  // printed CostBreakdown charge counts.
  EXPECT_EQ(0u, m.breakdown().charges_of(sim::CostCat::kLock));
}

TEST(LockTest, HoldTimeIsVirtualTimeUnderTheLock) {
  sim::Machine m;
  sim::SimLock lock(m, "t.hold", sim::LockRank::kObject);
  lock.Acquire();
  m.Charge(500);
  lock.Release();
  EXPECT_EQ(500u, lock.hold_ns());
  EXPECT_EQ(500u, m.stats().lock_hold_ns);
}

TEST(LockTest, MapRankMirrorsLegacyCounters) {
  sim::Machine m;
  sim::SimLock lock(m, "t.map", sim::LockRank::kMap);
  lock.Acquire();
  m.Charge(77);
  lock.Release();
  EXPECT_EQ(1u, m.stats().map_lock_acquisitions);
  EXPECT_EQ(77u, m.stats().map_lock_hold_ns);
}

TEST(LockTest, DescendingAndEqualRankNestingIsLegal) {
  sim::Machine m;
  sim::SimLock map_a(m, "t.map_a", sim::LockRank::kMap);
  sim::SimLock map_b(m, "t.map_b", sim::LockRank::kMap);
  sim::SimLock obj(m, "t.obj", sim::LockRank::kObject);
  sim::SimLock swap(m, "t.swap", sim::LockRank::kSwap);
  sim::LockGuard g1(map_a);
  sim::LockGuard g2(map_b);  // equal rank: the two-map extract/fork case
  sim::LockGuard g3(obj);
  sim::LockGuard g4(swap);
  EXPECT_EQ(4u, m.locks().held().size());
}

TEST(LockTest, NonLifoReleaseIsLegal) {
  sim::Machine m;
  sim::SimLock map(m, "t.map", sim::LockRank::kMap);
  sim::SimLock obj(m, "t.obj", sim::LockRank::kObject);
  map.Acquire();
  obj.Acquire();
  map.Release();  // error paths may drop the map before the object lock
  EXPECT_TRUE(obj.IsHeld());
  obj.Release();
  EXPECT_TRUE(m.locks().held().empty());
}

TEST(LockTest, TokenWitnessesAHeldLock) {
  sim::Machine m;
  sim::SimLock lock(m, "t.tok", sim::LockRank::kPageQueue);
  sim::LockGuard g(lock);
  sim::LockToken token(lock);
  EXPECT_EQ(&lock, &token.lock());
}

TEST(LockTest, RetiredTotalsSurviveTheLockObject) {
  sim::Machine m;
  {
    sim::SimLock lock(m, "t.transient", sim::LockRank::kMap);
    lock.Acquire();
    m.Charge(40);
    lock.Release();
  }
  // Per-address-space map locks die with their process; the per-class
  // totals must not.
  bool found = false;
  for (const sim::LockClassTotals& t : sim::LockTable(m.locks())) {
    if (std::string(t.name) == "t.transient") {
      found = true;
      EXPECT_EQ(1u, t.locks);
      EXPECT_EQ(1u, t.acquisitions);
      EXPECT_EQ(40u, t.hold_ns);
    }
  }
  EXPECT_TRUE(found);
}

// --- SimLock::RoundTrips against back-to-back LockGuard scopes ---

// Everything a lock round trip can leave behind on a machine.
struct LockEffects {
  sim::Nanoseconds now = 0;
  sim::CostBreakdown breakdown;
  std::uint64_t acquisitions = 0;
  std::uint64_t map_acquisitions = 0;
  std::uint64_t hold_ns = 0;
  std::uint64_t map_hold_ns = 0;
  std::uint64_t contended = 0;
  std::uint64_t wait_ns = 0;
  std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t>>
      table;
  std::vector<std::tuple<sim::TraceEventKind, std::string, sim::Nanoseconds>> trace;
};

LockEffects EffectsOf(const sim::Machine& m) {
  LockEffects e;
  e.now = m.clock().now();
  e.breakdown = m.breakdown();
  e.acquisitions = m.stats().lock_acquisitions;
  e.map_acquisitions = m.stats().map_lock_acquisitions;
  e.hold_ns = m.stats().lock_hold_ns;
  e.map_hold_ns = m.stats().map_lock_hold_ns;
  e.contended = m.stats().lock_contended_acquires;
  e.wait_ns = m.stats().lock_wait_ns;
  for (const sim::LockClassTotals& t : sim::LockTable(m.locks())) {
    e.table.emplace_back(t.name, t.acquisitions, t.hold_ns, t.contended_acquires, t.wait_ns);
  }
  for (std::size_t i = 0; i < m.tracer().size(); ++i) {
    const sim::TraceEvent& ev = m.tracer().at(i);
    e.trace.emplace_back(ev.kind, ev.name, ev.ts);
  }
  return e;
}

void ExpectSameEffects(const LockEffects& guards, const LockEffects& batched) {
  EXPECT_EQ(guards.now, batched.now);
  EXPECT_EQ(guards.breakdown.ns, batched.breakdown.ns);
  EXPECT_EQ(guards.breakdown.charges, batched.breakdown.charges);
  EXPECT_EQ(guards.acquisitions, batched.acquisitions);
  EXPECT_EQ(guards.map_acquisitions, batched.map_acquisitions);
  EXPECT_EQ(guards.hold_ns, batched.hold_ns);
  EXPECT_EQ(guards.map_hold_ns, batched.map_hold_ns);
  EXPECT_EQ(guards.contended, batched.contended);
  EXPECT_EQ(guards.wait_ns, batched.wait_ns);
  EXPECT_EQ(guards.table, batched.table);
  EXPECT_EQ(guards.trace, batched.trace);
}

struct RoundTripCase {
  sim::LockRank rank;
  bool costed;  // acquire_ns set (11 ns) or a zero-cost lock
  sim::SimLock::Attribution attribution;
  sim::Nanoseconds extra_ns;
};

// `n` round trips inside a fault scope, between two other charges, once as
// LockGuard scopes and once as one RoundTrips call, on fresh machines.
void CheckRoundTrips(const RoundTripCase& c, std::uint64_t n, bool trace) {
  auto run = [&](bool batched) {
    sim::Machine m;
    if (trace) {
      m.tracer().Enable();
    }
    const sim::Nanoseconds cost = 11;
    sim::SimLock lock(m, "t.rt", c.rank, c.costed ? &cost : nullptr, c.attribution);
    {
      sim::ChargeScope scope(m, sim::CostCat::kFault, "t.fault");
      m.Charge(3);
      if (batched) {
        lock.RoundTrips(n, c.extra_ns);
      } else {
        for (std::uint64_t i = 0; i < n; ++i) {
          sim::LockGuard g(lock, c.extra_ns);
        }
      }
      m.Charge(5);
    }
    EXPECT_EQ(n, lock.acquisitions());
    EXPECT_FALSE(lock.IsHeld());
    EXPECT_TRUE(m.locks().held().empty());
    return EffectsOf(m);
  };
  ExpectSameEffects(run(false), run(true));
}

TEST(LockRoundTripTest, MatchesLockGuardScopes) {
  const RoundTripCase cases[] = {
      // The BSD chain lock's shape: charged into the enclosing fault scope.
      {sim::LockRank::kObject, true, sim::SimLock::Attribution::kContext, 800},
      {sim::LockRank::kMap, true, sim::SimLock::Attribution::kLeaf, 0},
      {sim::LockRank::kPageQueue, false, sim::SimLock::Attribution::kLeaf, 0},
  };
  for (const RoundTripCase& c : cases) {
    for (std::uint64_t n : {0, 1, 2, 7}) {
      for (bool trace : {false, true}) {
        SCOPED_TRACE("rank " + std::string(sim::LockRankName(c.rank)) + " n " +
                     std::to_string(n) + (trace ? " traced" : ""));
        CheckRoundTrips(c, n, trace);
      }
    }
  }
}

// Another CPU released the lock at a later local time, so the first round
// trip spins up to that release and is the only contended one; a later
// acquire on the other CPU is contended against the last round trip's
// release, exactly as after the guards.
TEST(LockRoundTripTest, OnlyTheFirstRoundTripIsContended) {
  auto run = [](bool batched) {
    sim::Machine m;
    m.scheduler().Configure(2, 7);
    const sim::Nanoseconds cost = 10;
    sim::SimLock lock(m, "t.smp", sim::LockRank::kObject, &cost);
    lock.Acquire();
    m.Charge(100);
    lock.Release();  // cpu 0 releases at local time 110
    // SIM_SCHED_SWITCH_OK: test drives the scheduler by hand.
    m.scheduler().SwitchTo(1);
    if (batched) {
      lock.RoundTrips(4);
    } else {
      for (int i = 0; i < 4; ++i) {
        sim::LockGuard g(lock);
      }
    }
    EXPECT_EQ(1u, lock.contended_acquires());
    EXPECT_EQ(110u, lock.wait_ns());
    EXPECT_EQ(150u, m.clock().now());  // 110 waited, then 4 x 10
    // SIM_SCHED_SWITCH_OK: test drives the scheduler by hand.
    m.scheduler().SwitchTo(0);
    {
      sim::LockGuard g(lock);  // cpu 0 at 110 is behind cpu 1's release at 150
    }
    EXPECT_EQ(2u, lock.contended_acquires());
    return EffectsOf(m);
  };
  ExpectSameEffects(run(false), run(true));
}

TEST(LockDeathTest, RoundTripsOnAHeldLockPanics) {
  sim::Machine m;
  sim::SimLock lock(m, "t.reent", sim::LockRank::kObject);
  lock.Acquire();
  EXPECT_DEATH(lock.RoundTrips(3), "re-entrant acquire of lock t.reent");
  lock.Release();
}

TEST(LockDeathTest, RoundTripsOutOfRankOrderPanics) {
  sim::Machine m;
  sim::SimLock pmap(m, "t.pmap", sim::LockRank::kPmap);
  sim::SimLock obj(m, "t.obj", sim::LockRank::kObject);
  pmap.Acquire();
  EXPECT_DEATH(obj.RoundTrips(2),
               "lock rank violation: acquiring t.obj \\(rank object\\) while holding t.pmap "
               "\\(rank pmap\\)");
  pmap.Release();
}

TEST(LockDeathTest, ReentrantAcquirePanics) {
  sim::Machine m;
  sim::SimLock lock(m, "t.reent", sim::LockRank::kMap);
  lock.Acquire();
  EXPECT_DEATH(lock.Acquire(), "re-entrant acquire of lock t.reent");
  lock.Release();
}

TEST(LockDeathTest, RankOrderViolationPanics) {
  sim::Machine m;
  sim::SimLock pmap(m, "t.pmap", sim::LockRank::kPmap);
  sim::SimLock map(m, "t.map", sim::LockRank::kMap);
  pmap.Acquire();
  EXPECT_DEATH(
      map.Acquire(),
      "lock rank violation: acquiring t.map \\(rank map\\) while holding t.pmap \\(rank pmap\\)");
  pmap.Release();
}

// Regression for the held-stack validator hole: rank order must be checked
// against the *maximum* rank over all held locks. PopHeld permits non-LIFO
// release, so after map -> object -> release(map) the back of the held
// stack is not necessarily the max-rank lock; a validator that only looked
// at the innermost entry could let a second map acquire slip under the
// still-held object lock.
TEST(LockDeathTest, RankCheckedAgainstAllHeldLocksAfterNonLifoRelease) {
  sim::Machine m;
  sim::SimLock map_a(m, "t.map_a", sim::LockRank::kMap);
  sim::SimLock obj(m, "t.obj", sim::LockRank::kObject);
  sim::SimLock map_b(m, "t.map_b", sim::LockRank::kMap);
  map_a.Acquire();
  obj.Acquire();
  map_a.Release();  // non-LIFO: the object lock stays held
  EXPECT_DEATH(
      map_b.Acquire(),
      "lock rank violation: acquiring t.map_b \\(rank map\\) while holding t.obj \\(rank object\\)");
  obj.Release();
}

TEST(LockDeathTest, TokenOverUnheldLockAsserts) {
  sim::Machine m;
  sim::SimLock lock(m, "t.unheld", sim::LockRank::kMap);
  EXPECT_DEATH(sim::LockToken token(lock), "LockToken over a lock that is not held");
}

TEST(LockDeathTest, UnbalancedReleaseAsserts) {
  sim::Machine m;
  sim::SimLock lock(m, "t.unbal", sim::LockRank::kMap);
  EXPECT_DEATH(lock.Release(), "release of a lock that is not held");
}

// The generation tag behind the stale-page protocol: freeing a frame (here
// via its owning object) retires the identity a raw Page* captured before a
// blocking allocation, and FrameIsCurrent — under the queue lock — says so.
TEST(FrameGenerationTest, FreeingAFrameRetiresItsGeneration) {
  World w(VmKind::kUvm);
  phys::Page* p = w.pm.AllocPage(phys::OwnerKind::kKernel, &w, 0, /*zero=*/false);
  ASSERT_NE(nullptr, p);
  const std::uint32_t gen = p->gen;
  {
    sim::LockGuard q(w.pm.queue_lock());
    EXPECT_TRUE(w.pm.FrameIsCurrent(sim::LockToken(w.pm.queue_lock()), p, gen));
  }
  w.pm.FreePage(p);
  {
    sim::LockGuard q(w.pm.queue_lock());
    EXPECT_FALSE(w.pm.FrameIsCurrent(sim::LockToken(w.pm.queue_lock()), p, gen));
  }
}

// Completeness: a fleet workload under memory pressure must touch every
// registered lock class — a class with zero acquisitions would mean some
// charge site escaped the capability layer. RAM is sized down so the
// pagedaemon actually pushes to swap, and one boot-entry reservation
// exercises the kernel map (UVM's kmap is otherwise only a pressure path).
TEST(LockTableTest, FleetTouchesEveryLockClass) {
  for (VmKind kind : {VmKind::kBsd, VmKind::kUvm}) {
    World w(kind);
    // Shrink RAM under the running fleet (the CI gate's pressure shape) so
    // the pagedaemon must push anonymous pages to swap.
    w.InstallPressurePlan("@1ms phys-=7600");
    w.kernel->ReserveKernelBootEntries(1);
    kern::FleetConfig cfg;
    cfg.target_ops = 20000;
    kern::FleetWorkload fleet(*w.kernel, cfg);
    fleet.Run();
    const std::vector<sim::LockClassTotals> table = sim::LockTable(w.machine.locks());
    EXPECT_FALSE(table.empty());
    for (const sim::LockClassTotals& t : table) {
      EXPECT_GT(t.acquisitions, 0u)
          << "lock class '" << t.name << "' was never acquired on "
          << (kind == VmKind::kBsd ? "bsdvm" : "uvm");
    }
  }
}

TEST(LockDeterminismTest, FleetLockCountersAreIdenticalAcrossRuns) {
  for (VmKind kind : {VmKind::kBsd, VmKind::kUvm}) {
    std::vector<std::string> fp;
    for (int run = 0; run < 2; ++run) {
      World w(kind);
      kern::FleetConfig cfg;
      cfg.target_ops = 20000;
      kern::FleetWorkload fleet(*w.kernel, cfg);
      fleet.Run();
      std::vector<std::string> cur;
      for (const sim::LockClassTotals& t : sim::LockTable(w.machine.locks())) {
        cur.push_back(std::string(t.name) + ":" + std::to_string(t.locks) + ":" +
                      std::to_string(t.acquisitions) + ":" + std::to_string(t.hold_ns));
      }
      if (run == 0) {
        fp = cur;
      } else {
        EXPECT_EQ(fp, cur) << "per-lock counters diverged on "
                           << (kind == VmKind::kBsd ? "bsdvm" : "uvm");
      }
    }
  }
}

}  // namespace
