// Integrity soak under injected I/O faults: randomized anonymous-memory
// workloads (mmap, write, read-verify, fork, exit, pagedaemon pressure) run
// on both VM systems while the fault injector fails swap I/O underneath the
// pagers. The workload is checked against a flat reference model — every
// read, and a final byte-exact sweep — and VM invariants are verified
// throughout, so any recovery path that corrupts or loses a page fails the
// test. Everything is driven by seeded RNGs and the virtual clock, so each
// scenario (including the fault sequence) is exactly reproducible.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "src/harness/dump.h"
#include "src/harness/world.h"
#include "src/sim/rng.h"

namespace {

using harness::VmKind;
using harness::World;
using harness::WorldConfig;

// Per-process reference model: page-aligned va -> first byte of the page.
using ProcModel = std::map<sim::Vaddr, std::byte>;

struct ModelProc {
  kern::Proc* proc;
  ProcModel pages;
};

// Counters compared between runs for the determinism property.
struct SoakOutcome {
  std::uint64_t io_errors_injected = 0;
  std::uint64_t pagein_errors = 0;
  std::uint64_t pageout_retries = 0;
  std::uint64_t pageout_drops = 0;
  std::uint64_t bad_slots_remapped = 0;
  std::uint64_t faults = 0;
  std::uint64_t swap_ops = 0;
  sim::Nanoseconds virtual_ns = 0;

  bool operator==(const SoakOutcome&) const = default;
};

std::string Describe(const World& w) {
  std::ostringstream os;
  kern::DumpRecoveryStats(os, w.machine);
  return os.str();
}

// Runs the soak workload on one freshly built world with `plan` installed
// on the swap disk. All assertions (model match, invariants) fire inside.
SoakOutcome RunSoak(VmKind kind, const sim::FaultPlan& plan, std::uint64_t seed) {
  WorldConfig cfg;
  cfg.ram_pages = 256;  // 1 MB: heavy paging against the swap device
  cfg.swap_slots = 8192;
  World w(kind, cfg);
  w.machine.faults().Reseed(seed * 0x9e37 + 1);
  w.machine.faults().SetPlan(sim::IoDevice::kSwapDisk, plan);
  sim::Rng rng(seed);

  std::vector<ModelProc> procs;
  procs.push_back(ModelProc{w.kernel->Spawn(), {}});

  constexpr int kOps = 900;
  constexpr std::size_t kMaxProcs = 4;

  auto random_mapped_page = [&](ModelProc& mp) -> std::optional<sim::Vaddr> {
    if (mp.pages.empty()) {
      return std::nullopt;
    }
    auto it = mp.pages.begin();
    std::advance(it, static_cast<long>(rng.Below(mp.pages.size())));
    return it->first;
  };

  for (int op = 0; op < kOps; ++op) {
    ModelProc& mp = procs[rng.Below(procs.size())];
    switch (rng.Below(10)) {
      case 0: {  // mmap a fresh anonymous region
        std::uint64_t npages = rng.Range(1, 16);
        sim::Vaddr addr = 0;
        EXPECT_EQ(sim::kOk,
                  w.kernel->MmapAnon(mp.proc, &addr, npages * sim::kPageSize, kern::MapAttrs{}));
        for (std::uint64_t i = 0; i < npages; ++i) {
          mp.pages[addr + i * sim::kPageSize] = std::byte{0};
        }
        break;
      }
      case 1:
      case 2:
      case 3:
      case 4: {  // write one page
        auto va = random_mapped_page(mp);
        if (!va.has_value()) {
          break;
        }
        auto fill = static_cast<std::byte>(rng.Below(256));
        EXPECT_EQ(sim::kOk, w.kernel->TouchWrite(mp.proc, *va, 1, fill)) << Describe(w);
        mp.pages[*va] = fill;
        break;
      }
      case 5:
      case 6: {  // read-verify one page against the model
        auto va = random_mapped_page(mp);
        if (!va.has_value()) {
          break;
        }
        std::vector<std::byte> b(1);
        EXPECT_EQ(sim::kOk, w.kernel->ReadMem(mp.proc, *va, b)) << Describe(w);
        EXPECT_EQ(mp.pages[*va], b[0]) << "model mismatch at " << std::hex << *va;
        break;
      }
      case 7: {  // fork: COW — the child starts with the parent's view
        if (procs.size() >= kMaxProcs) {
          break;
        }
        kern::Proc* child = w.kernel->Fork(mp.proc);
        procs.push_back(ModelProc{child, mp.pages});
        break;
      }
      case 8: {  // exit (keep at least one process)
        if (procs.size() <= 1) {
          break;
        }
        std::size_t idx = rng.Below(procs.size());
        w.kernel->Exit(procs[idx].proc);
        procs.erase(procs.begin() + static_cast<long>(idx));
        break;
      }
      case 9: {  // memory pressure: pageouts run into the fault plan here
        w.vm->PageDaemon(w.pm.free_pages() + rng.Range(16, 64));
        w.CheckInvariants();  // every recovery leaves a sound system
        break;
      }
    }
    if (op % 64 == 63) {
      w.vm->PageDaemon(48);  // steady background pressure
      w.CheckInvariants();
    }
  }

  // Final sweep: every page of every live process, byte-exact.
  for (ModelProc& mp : procs) {
    for (const auto& [va, value] : mp.pages) {
      std::vector<std::byte> b(1);
      EXPECT_EQ(sim::kOk, w.kernel->ReadMem(mp.proc, va, b)) << Describe(w);
      EXPECT_EQ(value, b[0]) << "final sweep mismatch at " << std::hex << va << "\n"
                             << Describe(w);
    }
  }
  w.CheckInvariants();

  const sim::Stats& s = w.machine.stats();
  return SoakOutcome{s.io_errors_injected, s.pagein_errors, s.pageout_retries,
                     s.pageout_drops,      s.bad_slots_remapped, s.faults,
                     s.swap_ops,           w.machine.clock().now()};
}

class SoakTest : public ::testing::TestWithParam<VmKind> {};

// Transient write faults on the swap disk: every pageout has a 1-in-8
// chance of failing once. The pagedaemon's retry/backoff path must absorb
// all of it with zero user-visible damage.
TEST_P(SoakTest, TransientSwapWriteFaultsRecoverWithoutDataLoss) {
  sim::FaultPlan plan;
  plan.write_num = 1;
  plan.write_den = 8;
  SoakOutcome out = RunSoak(GetParam(), plan, /*seed=*/101);
  EXPECT_GT(out.io_errors_injected, 0u);
  EXPECT_GT(out.pageout_retries, 0u) << "workload never exercised the retry path";
  EXPECT_EQ(0u, out.bad_slots_remapped);  // transient-only plan
  EXPECT_EQ(0u, out.pageout_drops);  // transient faults never lose pages
}

// Permanent slot failures (half of injected write faults) force bad-block
// remapping: the swap layer retires the slot and moves the cluster, and the
// workload must still complete byte-exact.
TEST_P(SoakTest, PermanentSwapFaultsRemapWithoutDataLoss) {
  sim::FaultPlan plan;
  plan.write_num = 1;
  plan.write_den = 12;
  plan.permanent_num = 1;
  plan.permanent_den = 2;
  SoakOutcome out = RunSoak(GetParam(), plan, /*seed=*/202);
  EXPECT_GT(out.io_errors_injected, 0u);
  EXPECT_GT(out.bad_slots_remapped, 0u) << "workload never exercised remapping";
  // Permanent swap faults are recovered by remapping, never by dropping:
  // the byte-exact final sweep above is only honest if nothing was lost.
  EXPECT_EQ(0u, out.pageout_drops);
}

// Same seed + same plan => bit-identical behaviour, including the fault
// sequence, every counter, and the virtual clock.
TEST_P(SoakTest, SameSeedAndPlanAreDeterministic) {
  sim::FaultPlan plan;
  plan.write_num = 1;
  plan.write_den = 10;
  plan.permanent_num = 1;
  plan.permanent_den = 3;
  SoakOutcome a = RunSoak(GetParam(), plan, /*seed=*/303);
  SoakOutcome b = RunSoak(GetParam(), plan, /*seed=*/303);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.io_errors_injected, 0u);
}

INSTANTIATE_TEST_SUITE_P(BothVms, SoakTest, ::testing::Values(VmKind::kBsd, VmKind::kUvm),
                         [](const ::testing::TestParamInfo<VmKind>& param_info) {
                           return harness::VmKindName(param_info.param);
                         });

}  // namespace
