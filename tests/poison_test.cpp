// Memory-error containment (hwpoison, DESIGN.md §13) on both VM systems:
// plan parsing, injection mechanics, transparent refetch of clean backed
// pages, late-kill of processes that touch dirty poisoned anonymous memory,
// loan revocation, the pagedaemon's handling of poisoned frames, and
// byte-exact reproducibility of runs with armed memfault/audit plans —
// including poison landing during a pageout retry storm.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/core/uvm.h"
#include "src/harness/world.h"
#include "src/sim/fault.h"
#include "src/sim/report.h"

namespace {

using harness::VmKind;
using harness::World;
using harness::WorldConfig;

// --- Plan parsing ---

TEST(MemFaultPlanTest, ParsesTargetedAndRandomEvents) {
  sim::MemFaultPlan plan;
  std::string error;
  ASSERT_TRUE(sim::ParseMemFaultPlan("@10ms poison 42; @20us poison random:3 ;@7 poison 0;",
                                     &plan, &error))
      << error;
  ASSERT_EQ(3u, plan.events.size());
  EXPECT_EQ(10'000'000, plan.events[0].at);
  EXPECT_FALSE(plan.events[0].random);
  EXPECT_EQ(42u, plan.events[0].pfn);
  EXPECT_EQ(20'000, plan.events[1].at);
  EXPECT_TRUE(plan.events[1].random);
  EXPECT_EQ(3u, plan.events[1].count);
  EXPECT_EQ(7, plan.events[2].at);  // no suffix = nanoseconds
}

TEST(MemFaultPlanTest, MalformedSpecsAreRejectedWithAMessage) {
  const char* bad[] = {
      "10ms poison 42",         // missing '@'
      "@10ms zap 42",           // unknown verb
      "@10ms poison",           // missing target
      "@10ms poison random:",   // missing count
      "@10ms poison 42 junk",   // trailing junk
      "@20000000000s poison 1",            // N × unit overflows Nanoseconds
      "@1ms poison 99999999999999999999",  // pfn overflows 64 bits
      "@1ms poison random:99999999999999999999",  // count overflows 64 bits
  };
  for (const char* spec : bad) {
    sim::MemFaultPlan plan;
    std::string error;
    EXPECT_FALSE(sim::ParseMemFaultPlan(spec, &plan, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

// The plan queue applies events in time order, events at the same time in
// the order written, and leaves an event that is not yet due pending. The
// order shows in poison_gen, which numbers injections as they happen.
TEST(MemFaultPlanTest, EventsApplyInTimeThenWrittenOrder) {
  sim::Machine machine;
  phys::PhysMem pm(machine, 64);
  sim::MemFaultPlan plan;
  std::string error;
  ASSERT_TRUE(sim::ParseMemFaultPlan(
      "@9ms poison 9; @1ms poison 7; @0 poison 5; @0 poison 3", &plan, &error))
      << error;
  machine.faults().SetMemPlan(plan);
  machine.clock().Advance(1'000'000);
  machine.PollPressure();
  EXPECT_EQ(1u, pm.PageAt(5)->poison_gen);
  EXPECT_EQ(2u, pm.PageAt(3)->poison_gen);
  EXPECT_EQ(3u, pm.PageAt(7)->poison_gen);
  EXPECT_FALSE(pm.PageAt(9)->poisoned);
  EXPECT_EQ(1u, machine.faults().pending_mem_events());
}

// --- Injection mechanics ---

TEST(PoisonInjectTest, IdleFrameRetiresOnTheSpotAndNeverComesBack) {
  World w(VmKind::kUvm);
  phys::Page* p = w.pm.PageAt(5);
  ASSERT_EQ(phys::PageQueue::kFree, p->queue);
  EXPECT_TRUE(w.pm.PoisonPfn(5));
  EXPECT_TRUE(p->poisoned);
  EXPECT_NE(0u, p->poison_gen);
  EXPECT_EQ(1u, w.pm.poisoned_pages());
  EXPECT_EQ(1u, w.pm.retired_pages());
  EXPECT_FALSE(w.pm.PoisonPfn(5)) << "double poison must be a no-op";
  // Drain the allocator: the retired frame must never be handed out.
  while (phys::Page* q = w.pm.AllocPage(phys::OwnerKind::kKernel, nullptr, 0, false)) {
    EXPECT_NE(5u, q->pfn);
  }
}

class PoisonVmTest : public ::testing::TestWithParam<VmKind> {};

// Resolve the physical frame currently mapped at `va`.
sim::Pfn PfnAt(kern::Proc* p, sim::Vaddr va) {
  auto pte = p->as->pmap().Extract(va);
  EXPECT_TRUE(pte.has_value());
  return pte.has_value() ? pte->pfn : sim::kInvalidPfn;
}

TEST_P(PoisonVmTest, CleanFilePagePoisonIsRefetchedTransparently) {
  World w(GetParam());
  w.fs.CreateFilePattern("/f", 4 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &a, 4 * sim::kPageSize, "/f", 0, ro));
  ASSERT_EQ(sim::kOk, w.kernel->TouchRead(p, a, 4 * sim::kPageSize));

  sim::Pfn pfn = PfnAt(p, a);
  ASSERT_TRUE(w.pm.PoisonPfn(pfn));
  // The machine-check hook unmapped the frame on the spot.
  EXPECT_FALSE(p->as->pmap().Extract(a).has_value());

  // The refault discovers the poison, discards the clean page, and
  // re-fetches from the file: the process never notices.
  std::vector<std::byte> b(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a, b));
  EXPECT_EQ(vfs::Filesystem::PatternByte("/f", 0), b[0]);
  EXPECT_TRUE(p->alive);
  EXPECT_NE(pfn, PfnAt(p, a)) << "poisoned frame must not be remapped";
  EXPECT_GE(w.machine.stats().poison_discards, 1u);
  EXPECT_GE(w.machine.stats().poison_refetches, 1u);
  EXPECT_EQ(0u, w.machine.stats().poison_kills);
  w.kernel->Exit(p);
  EXPECT_EQ(1u, w.pm.retired_pages());
}

TEST_P(PoisonVmTest, DirtyAnonPoisonKillsTheToucher) {
  World w(GetParam());
  kern::Proc* p = w.kernel->Spawn();
  kern::Proc* bystander = w.kernel->Spawn();
  sim::Vaddr a = 0, b = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 2 * sim::kPageSize, kern::MapAttrs{}));
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(bystander, &b, sim::kPageSize, kern::MapAttrs{}));
  ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(p, a, 2 * sim::kPageSize, std::byte{0x42}));
  ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(bystander, b, 1, std::byte{0x24}));

  sim::Pfn pfn = PfnAt(p, a);
  ASSERT_TRUE(w.pm.PoisonPfn(pfn));
  // The dirty page's only copy is gone: the next toucher dies, late-kill
  // style, and the error is surfaced as EMEMPOISON.
  EXPECT_EQ(sim::kErrMemPoison, w.kernel->TouchRead(p, a, 1));
  EXPECT_FALSE(p->alive);
  EXPECT_TRUE(bystander->alive);
  EXPECT_EQ(1u, w.machine.stats().poison_kills);
  EXPECT_GE(w.machine.stats().poison_pages_reclaimed, 1u);
  EXPECT_EQ(0u, w.machine.stats().oom_kills);
  // Teardown retired the frame; it is out of circulation for good.
  EXPECT_EQ(1u, w.pm.retired_pages());
  std::vector<std::byte> buf(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(bystander, b, buf));
  EXPECT_EQ(std::byte{0x24}, buf[0]);
  w.kernel->Exit(bystander);
}

// Killing a swapped-out process swaps its u-area back in before freeing
// it: every frame comes back except the one the poison retired.
TEST_P(PoisonVmTest, KilledWhileSwappedOutGivesBackItsUarea) {
  World w(GetParam());
  const std::size_t free_before = w.pm.free_pages();
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, sim::kPageSize, kern::MapAttrs{}));
  ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(p, a, 1, std::byte{0x42}));
  ASSERT_TRUE(w.pm.PoisonPfn(PfnAt(p, a)));
  w.kernel->SwapOutProc(p);
  EXPECT_EQ(sim::kErrMemPoison, w.kernel->TouchRead(p, a, 1));
  EXPECT_FALSE(p->alive);
  EXPECT_EQ(1u, w.machine.stats().poison_kills);
  EXPECT_EQ(free_before - 1, w.pm.free_pages());
  EXPECT_EQ(0u, w.vm->KernelMapEntries());
  w.kernel->Exit(p);
  EXPECT_EQ(0u, w.machine.auditor().Run());
}

TEST_P(PoisonVmTest, ZombieShellObservesTheKillOnEverySyscall) {
  World w(GetParam());
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, sim::kPageSize, kern::MapAttrs{}));
  ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(p, a, 1, std::byte{0x42}));
  ASSERT_TRUE(w.pm.PoisonPfn(PfnAt(p, a)));
  ASSERT_EQ(sim::kErrMemPoison, w.kernel->TouchRead(p, a, 1));
  ASSERT_FALSE(p->alive);
  // The Proc* is a zombie shell (as == nullptr). Every further syscall on
  // it must report why the process died, not dereference the freed space.
  EXPECT_EQ(sim::kErrMemPoison, w.kernel->TouchWrite(p, a, 1, std::byte{0x1}));
  EXPECT_EQ(sim::kErrMemPoison, w.kernel->TouchRead(p, a, 1));
  sim::Vaddr b = 0;
  EXPECT_EQ(sim::kErrMemPoison, w.kernel->MmapAnon(p, &b, sim::kPageSize, kern::MapAttrs{}));
  EXPECT_EQ(sim::kErrMemPoison, w.kernel->Munmap(p, a, sim::kPageSize));
  EXPECT_EQ(sim::kErrMemPoison, w.kernel->Msync(p, a, sim::kPageSize));
  EXPECT_EQ(nullptr, w.kernel->Fork(p));
  EXPECT_EQ(1u, w.machine.stats().poison_kills);
  // Exit on the zombie reaps the shell (the ASan suite would catch a
  // double teardown at World destruction); the machine still audits clean.
  w.kernel->Exit(p);
  EXPECT_EQ(0u, w.machine.auditor().Run());
}

TEST_P(PoisonVmTest, DirtySharedFilePagePoisonKillsToucherButKeepsStaleFile) {
  World w(GetParam());
  w.fs.CreateFilePattern("/shared", 2 * sim::kPageSize);
  std::byte original = vfs::Filesystem::PatternByte("/shared", 0);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  kern::MapAttrs rw;
  rw.shared = true;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &a, 2 * sim::kPageSize, "/shared", 0, rw));
  ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(p, a, 1, std::byte{0x99}));

  ASSERT_TRUE(w.pm.PoisonPfn(PfnAt(p, a)));
  EXPECT_EQ(sim::kErrMemPoison, w.kernel->TouchRead(p, a, 1));
  EXPECT_FALSE(p->alive);

  // The modification died with the page, but the file is not a permanent
  // kill-trap: a fresh mapping re-reads the coherent pre-write copy.
  kern::Proc* q = w.kernel->Spawn();
  sim::Vaddr b = 0;
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(q, &b, 2 * sim::kPageSize, "/shared", 0, ro));
  std::vector<std::byte> buf(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(q, b, buf));
  EXPECT_EQ(original, buf[0]);
  EXPECT_TRUE(q->alive);
  w.kernel->Exit(q);
}

TEST_P(PoisonVmTest, PageDaemonRetiresCleanAndParksDirtyPoisonedPages) {
  World w(GetParam());
  w.fs.CreateFilePattern("/f", sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr file_va = 0, anon_va = 0;
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &file_va, sim::kPageSize, "/f", 0, ro));
  ASSERT_EQ(sim::kOk, w.kernel->TouchRead(p, file_va, sim::kPageSize));
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &anon_va, sim::kPageSize, kern::MapAttrs{}));
  ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(p, anon_va, 1, std::byte{0x77}));

  sim::Pfn clean_pfn = PfnAt(p, file_va);
  sim::Pfn dirty_pfn = PfnAt(p, anon_va);
  ASSERT_TRUE(w.pm.PoisonPfn(clean_pfn));
  ASSERT_TRUE(w.pm.PoisonPfn(dirty_pfn));

  // Ask for everything: the daemon must retire the clean frame (its backing
  // copy is intact) and park the dirty one off-queue without ever writing
  // its garbage bytes to swap.
  std::size_t slots_before = w.swap.used_slots();
  w.vm->PageDaemon(w.pm.total_pages());
  phys::Page* dirty = w.pm.PageAt(dirty_pfn);
  EXPECT_EQ(phys::PageQueue::kNone, w.pm.PageAt(clean_pfn)->queue);
  EXPECT_GE(w.pm.retired_pages(), 1u);
  EXPECT_GE(w.machine.stats().poison_discards, 1u);
  EXPECT_EQ(phys::PageQueue::kNone, dirty->queue);
  EXPECT_TRUE(dirty->dirty) << "dirty poisoned page must never be flushed";
  EXPECT_EQ(slots_before, w.swap.used_slots());

  // The parked page is still a kill-trap for its owner.
  EXPECT_EQ(sim::kErrMemPoison, w.kernel->TouchRead(p, anon_va, 1));
  EXPECT_FALSE(p->alive);
  EXPECT_EQ(2u, w.pm.retired_pages());
}

INSTANTIATE_TEST_SUITE_P(BothVms, PoisonVmTest,
                         ::testing::Values(VmKind::kBsd, VmKind::kUvm));

// --- Poison × loanout (UVM only: BSD VM has no loan facility) ---

TEST(PoisonLoanTest, PoisoningALoanedPageRevokesTheLoanAndNotifiesTheBorrower) {
  World w(VmKind::kUvm);
  auto* uvm_sys = static_cast<uvm::Uvm*>(w.vm.get());
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 2 * sim::kPageSize, kern::MapAttrs{}));
  ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(p, a, 2 * sim::kPageSize, std::byte{0x33}));
  std::vector<phys::Page*> loaned;
  ASSERT_EQ(sim::kOk, w.vm->Loan(*p->as, a, 2, &loaned));
  ASSERT_EQ(2u, loaned.size());

  std::vector<phys::Page*> revoked;
  uvm_sys->set_loan_revoke_hook([&](phys::Page* pg) { revoked.push_back(pg); });

  phys::Page* victim = loaned[0];
  ASSERT_TRUE(w.pm.PoisonPfn(victim->pfn));
  // The loan was revoked at injection time: the borrower was notified, the
  // loan wirings were dropped, and the frame is unmapped everywhere.
  ASSERT_EQ(1u, revoked.size());
  EXPECT_EQ(victim, revoked[0]);
  EXPECT_EQ(0, victim->loan_count);
  EXPECT_EQ(0, victim->wire_count);
  EXPECT_EQ(1u, w.machine.stats().poison_loans_broken);

  // The revoked page must NOT be passed to Unloan; the surviving loan is
  // returned normally.
  std::vector<phys::Page*> keep{loaned[1]};
  w.vm->Unloan(keep);
  EXPECT_EQ(0, loaned[1]->loan_count);

  // The page was dirty anon: its owner dies on the next touch.
  EXPECT_EQ(sim::kErrMemPoison, w.kernel->TouchRead(p, a, 1));
  EXPECT_FALSE(p->alive);
  uvm_sys->set_loan_revoke_hook(nullptr);
}

// --- Determinism with armed plans ---

// Seeded churn workload under a scripted memory-error storm, an armed
// periodic audit, and (optionally) a flaky swap device forcing pageout
// retry loops — poison then lands mid-retry via the swap-op poll. Returns
// the full stats report; two runs must match byte for byte.
std::string RunPoisonChurn(VmKind kind, bool flaky_swap) {
  WorldConfig cfg;
  cfg.ram_pages = 256;
  cfg.swap_slots = 1024;
  cfg.memfault_plan = "@50us poison random:2; @200us poison random:3; @1ms poison random:2";
  cfg.audit_every = 500'000;  // every 0.5 virtual ms
  World w(kind, cfg);
  if (flaky_swap) {
    sim::FaultPlan plan;
    plan.write_num = 1;
    plan.write_den = 8;  // transient failures only: every retry can succeed
    w.machine.faults().SetPlan(sim::IoDevice::kSwapDisk, plan);
  }
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  const std::size_t npages = 512;  // 2x RAM: the daemon and swap stay busy
  EXPECT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, npages * sim::kPageSize, kern::MapAttrs{}));
  std::uint64_t s = 0x1234'5678'9abc'def0ull;
  for (int i = 0; i < 2000 && p->alive; ++i) {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    sim::Vaddr va = a + (s * 0x2545f4914f6cdd1dull % npages) * sim::kPageSize;
    int err = w.kernel->TouchWrite(p, va, 1, std::byte{static_cast<unsigned char>(i)});
    EXPECT_TRUE(err == sim::kOk || err == sim::kErrMemPoison || err == sim::kErrNoMem)
        << sim::ErrName(err);
  }
  if (p->alive) {
    w.kernel->Exit(p);
  }
  std::ostringstream os;
  sim::ReportStats(os, w.machine);
  os << " poisoned=" << w.pm.poisoned_pages() << " retired=" << w.pm.retired_pages()
     << " pageout_retries=" << w.machine.stats().pageout_retries
     << " audits=" << w.machine.auditor().runs()
     << " violations=" << w.machine.auditor().total_violations();
  return os.str();
}

class PoisonDeterminismTest : public ::testing::TestWithParam<VmKind> {};

TEST_P(PoisonDeterminismTest, ArmedMemfaultAndAuditRunsAreByteIdentical) {
  std::string first = RunPoisonChurn(GetParam(), /*flaky_swap=*/false);
  std::string second = RunPoisonChurn(GetParam(), /*flaky_swap=*/false);
  EXPECT_EQ(first, second);
  EXPECT_EQ(std::string::npos, first.find("poisoned=0 ")) << "plan never fired: " << first;
  EXPECT_NE(first.find("violations=0"), std::string::npos) << first;
}

TEST_P(PoisonDeterminismTest, PoisonDuringPageoutRetryStormIsContainedAndDeterministic) {
  std::string first = RunPoisonChurn(GetParam(), /*flaky_swap=*/true);
  std::string second = RunPoisonChurn(GetParam(), /*flaky_swap=*/true);
  EXPECT_EQ(first, second);
  EXPECT_EQ(std::string::npos, first.find("poisoned=0 ")) << "plan never fired: " << first;
  EXPECT_NE(first.find("violations=0"), std::string::npos) << first;
  // The flaky device must actually have forced retries, or this test is not
  // exercising poison-during-retry at all.
  EXPECT_EQ(std::string::npos, first.find("pageout_retries=0 ")) << first;
}

INSTANTIATE_TEST_SUITE_P(BothVms, PoisonDeterminismTest,
                         ::testing::Values(VmKind::kBsd, VmKind::kUvm));

}  // namespace
