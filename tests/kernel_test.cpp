// Kernel-facade tests: process bookkeeping, user memory access across page
// boundaries, the sysctl/physio services' data paths, socket sends, and
// the Table 1 counting helper.
#include <gtest/gtest.h>

#include "src/harness/world.h"
#include "src/kern/workloads.h"
#include "tests/ref_model.h"

namespace {

using harness::VmKind;
using harness::World;

class KernelTest : public ::testing::TestWithParam<VmKind> {
 protected:
  World w{GetParam()};
};

TEST_P(KernelTest, SpawnForkExitBookkeeping) {
  EXPECT_EQ(0u, w.kernel->live_procs());
  kern::Proc* a = w.kernel->Spawn();
  kern::Proc* b = w.kernel->Fork(a);
  EXPECT_EQ(2u, w.kernel->live_procs());
  EXPECT_NE(a->pid, b->pid);
  EXPECT_NE(a->as, b->as);
  w.kernel->Exit(b);
  EXPECT_EQ(1u, w.kernel->live_procs());
  w.kernel->Exit(a);
  EXPECT_EQ(0u, w.kernel->live_procs());
}

TEST_P(KernelTest, WriteReadSpanningPageBoundary) {
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 3 * sim::kPageSize, kern::MapAttrs{}));
  std::vector<std::byte> data(2 * sim::kPageSize);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 13 & 0xff);
  }
  // Write starting mid-page, crossing two page boundaries.
  sim::Vaddr start = a + sim::kPageSize / 2;
  ASSERT_EQ(sim::kOk, w.kernel->WriteMem(p, start, data));
  std::vector<std::byte> back(data.size());
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, start, back));
  EXPECT_EQ(data, back);
}

TEST_P(KernelTest, WriteFailsCleanlyAtMappingEdge) {
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, sim::kPageSize, kern::MapAttrs{}));
  std::vector<std::byte> data(100, std::byte{1});
  // Write that starts in the mapping but runs past its end.
  EXPECT_EQ(sim::kErrFault, w.kernel->WriteMem(p, a + sim::kPageSize - 50, data));
}

TEST_P(KernelTest, SysctlDeliversData) {
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 2 * sim::kPageSize, kern::MapAttrs{}));
  ASSERT_EQ(sim::kOk, w.kernel->Sysctl(p, a + 100, 200));
  std::vector<std::byte> b(200);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a + 100, b));
  for (std::byte v : b) {
    EXPECT_EQ(std::byte{0x5c}, v);
  }
}

TEST_P(KernelTest, PhysioReadDeliversAndChargesDisk) {
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 4 * sim::kPageSize, kern::MapAttrs{}));
  std::uint64_t ops = w.machine.stats().disk_ops;
  ASSERT_EQ(sim::kOk, w.kernel->Physio(p, a, 4 * sim::kPageSize, /*is_write=*/false));
  EXPECT_EQ(ops + 1, w.machine.stats().disk_ops);
  std::vector<std::byte> b(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a + 2 * sim::kPageSize, b));
  EXPECT_EQ(std::byte{0xd1}, b[0]);
}

TEST_P(KernelTest, SocketSendCopyWorksOnBothSystems) {
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 4 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 4 * sim::kPageSize, std::byte{1});
  EXPECT_EQ(sim::kOk, w.kernel->SocketSendCopy(p, a, 4 * sim::kPageSize));
}

TEST_P(KernelTest, TotalMapEntriesCountsKernelAndProcs) {
  std::size_t base = w.kernel->TotalMapEntries();
  w.kernel->ReserveKernelBootEntries(3);
  EXPECT_EQ(base + 3, w.kernel->TotalMapEntries());
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, sim::kPageSize, kern::MapAttrs{}));
  std::size_t uarea = GetParam() == VmKind::kBsd ? 2 : 0;
  EXPECT_EQ(base + 3 + 1 + uarea, w.kernel->TotalMapEntries());
}

TEST_P(KernelTest, TotalMapEntriesCountsVforkChildsBorrowedMapOnce) {
  std::size_t base = w.kernel->TotalMapEntries();
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, sim::kPageSize, kern::MapAttrs{}));
  std::size_t uarea = GetParam() == VmKind::kBsd ? 2 : 0;
  EXPECT_EQ(base + 1 + uarea, w.kernel->TotalMapEntries());
  // The child adds its own u-area (BSD VM's kernel-map entries), not a
  // second copy of the parent's one entry.
  ASSERT_NE(nullptr, w.kernel->Vfork(p));
  EXPECT_EQ(base + 1 + 2 * uarea, w.kernel->TotalMapEntries());
}

TEST_P(KernelTest, ExitReleasesTransientWiringsLeftByBugs) {
  // Even if a "driver" forgot to unwire (we inject one), exit cleans up.
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 2 * sim::kPageSize, kern::MapAttrs{}));
  kern::TransientWiring tw;
  ASSERT_EQ(sim::kOk, w.vm->WireTransient(*p->as, a, 2 * sim::kPageSize, &tw));
  p->kernel_stack_wirings.push_back(std::move(tw));
  w.kernel->Exit(p);  // must not panic on wired pages
  w.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(BothVms, KernelTest, ::testing::Values(VmKind::kBsd, VmKind::kUvm),
                         refmodel::VmName);

// --- Workload machinery ---

class WorkloadTest : public ::testing::TestWithParam<VmKind> {};

TEST_P(WorkloadTest, ExecBuildsExpectedLayout) {
  World w(GetParam());
  kern::Proc* p = w.kernel->Spawn();
  kern::ExecLayout l = kern::Exec(*w.kernel, p, kern::CatImage());
  EXPECT_LT(l.text, l.data);
  EXPECT_LT(l.data, l.bss);
  EXPECT_LT(l.stack, l.stack_end);
  EXPECT_EQ(l.sigtramp, l.stack_end);
  EXPECT_EQ(l.ps_strings, l.sigtramp + sim::kPageSize);
  // Text is executable but not writable.
  std::vector<std::byte> one(1, std::byte{1});
  EXPECT_EQ(sim::kErrProt, w.kernel->WriteMem(p, l.text, one));
  EXPECT_EQ(sim::kOk, w.kernel->WriteMem(p, l.data, one));
  EXPECT_EQ(sim::kOk, w.kernel->WriteMem(p, l.stack, one));
}

TEST_P(WorkloadTest, ExecutedProgramsShareTextPages) {
  World w(GetParam());
  kern::Proc* p1 = w.kernel->Spawn();
  kern::Exec(*w.kernel, p1, kern::CatImage());
  std::uint64_t ops = w.machine.stats().disk_ops;
  kern::Proc* p2 = w.kernel->Spawn();
  kern::Exec(*w.kernel, p2, kern::CatImage());
  // Second exec of the same binary reuses the cached text pages: at most
  // minor extra I/O (data page reread under BSD's per-mapping COW).
  EXPECT_LE(w.machine.stats().disk_ops - ops, 3u);
}

TEST_P(WorkloadTest, TracesAreDeterministic) {
  const kern::TraceSpec& spec = kern::Table2Traces()[0];
  World w1(GetParam());
  World w2(GetParam());
  EXPECT_EQ(kern::RunCommandTrace(*w1.kernel, spec), kern::RunCommandTrace(*w2.kernel, spec));
}

TEST_P(WorkloadTest, BootScriptsLeaveProcessesRunning) {
  World w(GetParam());
  kern::BootSingleUser(*w.kernel);
  EXPECT_EQ(2u, w.kernel->live_procs());  // init + sh
}

INSTANTIATE_TEST_SUITE_P(BothVms, WorkloadTest, ::testing::Values(VmKind::kBsd, VmKind::kUvm),
                         refmodel::VmName);

}  // namespace
