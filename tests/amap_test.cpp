// Unit tests for UVM's anon/amap layer: both slot-storage implementations
// behind the interface (§5.4), plus amap/anon semantics exercised through
// the full VM (copy deferral, reference counting, sole-reference writes).
#include <gtest/gtest.h>

#include "src/core/amap.h"
#include "src/harness/world.h"

namespace {

using harness::VmKind;
using harness::World;

// --- AmapImpl behaviour, parameterized over implementations ---

class AmapImplTest : public ::testing::TestWithParam<uvm::AmapImplPolicy> {
 protected:
  std::unique_ptr<uvm::AmapImpl> Make(std::uint64_t nslots) {
    return uvm::MakeAmapImpl(GetParam(), nslots);
  }
};

TEST_P(AmapImplTest, StartsEmpty) {
  auto impl = Make(16);
  EXPECT_EQ(16u, impl->nslots());
  EXPECT_EQ(0u, impl->count());
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(nullptr, impl->Get(i));
  }
}

TEST_P(AmapImplTest, SetGetClear) {
  auto impl = Make(8);
  uvm::Anon a1;
  uvm::Anon a2;
  impl->Set(3, &a1);
  impl->Set(7, &a2);
  EXPECT_EQ(&a1, impl->Get(3));
  EXPECT_EQ(&a2, impl->Get(7));
  EXPECT_EQ(2u, impl->count());
  impl->Set(3, nullptr);
  EXPECT_EQ(nullptr, impl->Get(3));
  EXPECT_EQ(1u, impl->count());
}

TEST_P(AmapImplTest, OverwriteKeepsCount) {
  auto impl = Make(4);
  uvm::Anon a1;
  uvm::Anon a2;
  impl->Set(2, &a1);
  impl->Set(2, &a2);
  EXPECT_EQ(&a2, impl->Get(2));
  EXPECT_EQ(1u, impl->count());
}

TEST_P(AmapImplTest, ForEachVisitsExactlyOccupiedSlots) {
  auto impl = Make(64);
  uvm::Anon anons[5];
  std::uint64_t slots[5] = {0, 7, 13, 42, 63};
  for (int i = 0; i < 5; ++i) {
    impl->Set(slots[i], &anons[i]);
  }
  std::map<std::uint64_t, uvm::Anon*> seen;
  impl->ForEach([&](std::uint64_t slot, uvm::Anon* a) { seen[slot] = a; });
  ASSERT_EQ(5u, seen.size());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(&anons[i], seen[slots[i]]);
  }
}

TEST_P(AmapImplTest, LargeSparseUsage) {
  auto impl = Make(1u << 20);  // 4 GB worth of slots
  uvm::Anon a;
  impl->Set(0, &a);
  impl->Set((1u << 20) - 1, &a);
  impl->Set(123456, &a);
  EXPECT_EQ(3u, impl->count());
  EXPECT_EQ(&a, impl->Get(123456));
  EXPECT_EQ(nullptr, impl->Get(123457));
}

INSTANTIATE_TEST_SUITE_P(AllImpls, AmapImplTest,
                         ::testing::Values(uvm::AmapImplPolicy::kArray,
                                           uvm::AmapImplPolicy::kHash,
                                           uvm::AmapImplPolicy::kHybrid),
                         [](const ::testing::TestParamInfo<uvm::AmapImplPolicy>& param_info) {
                           switch (param_info.param) {
                             case uvm::AmapImplPolicy::kArray:
                               return "array";
                             case uvm::AmapImplPolicy::kHash:
                               return "hash";
                             default:
                               return "hybrid";
                           }
                         });

TEST(AmapPolicyTest, HybridPicksBySize) {
  auto small = uvm::MakeAmapImpl(uvm::AmapImplPolicy::kHybrid, 16);
  auto large = uvm::MakeAmapImpl(uvm::AmapImplPolicy::kHybrid, 1u << 16);
  EXPECT_STREQ("array", small->kind());
  EXPECT_STREQ("hash", large->kind());
}

// --- anon/amap semantics through the full VM ---

TEST(AnonSemanticsTest, ZeroFillAllocatesAnonsLazily) {
  World w(VmKind::kUvm);
  auto* vm = static_cast<uvm::Uvm*>(w.vm.get());
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &addr, 32 * sim::kPageSize, kern::MapAttrs{}));
  EXPECT_EQ(0u, vm->LiveAnons());
  EXPECT_EQ(0u, vm->LiveAmaps());
  w.kernel->TouchWrite(p, addr, 3 * sim::kPageSize, std::byte{1});
  EXPECT_EQ(3u, vm->LiveAnons());
  EXPECT_EQ(1u, vm->LiveAmaps());  // allocated at first fault
  w.kernel->Exit(p);
  EXPECT_EQ(0u, vm->LiveAnons());
  EXPECT_EQ(0u, vm->LiveAmaps());
}

TEST(AnonSemanticsTest, SoleReferenceWriteDoesNotCopy) {
  World w(VmKind::kUvm);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &addr, sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, addr, 1, std::byte{1});
  std::uint64_t copies = w.machine.stats().pages_copied;
  // Drop the mapping from the pmap and write-fault again: the anon has a
  // single reference, so UVM writes in place (§5.3).
  p->as->pmap().Remove(addr);
  w.kernel->TouchWrite(p, addr, 1, std::byte{2});
  EXPECT_EQ(copies, w.machine.stats().pages_copied);
}

TEST(AnonSemanticsTest, ForkChildWriteCopiesOnlyTouchedPages) {
  World w(VmKind::kUvm);
  auto* vm = static_cast<uvm::Uvm*>(w.vm.get());
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &addr, 8 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, addr, 8 * sim::kPageSize, std::byte{1});
  EXPECT_EQ(8u, vm->LiveAnons());
  kern::Proc* c = w.kernel->Fork(p);
  EXPECT_EQ(8u, vm->LiveAnons());  // deferred: nothing copied at fork
  w.kernel->TouchWrite(c, addr, 2 * sim::kPageSize, std::byte{2});
  EXPECT_EQ(10u, vm->LiveAnons());  // two pages copied, six still shared
  w.kernel->Exit(c);
  EXPECT_EQ(8u, vm->LiveAnons());
  w.CheckInvariants();
}

TEST(AnonSemanticsTest, ChildWithSoleAmapReferenceReusesIt) {
  // Figure 3, third column: after the parent copies its amap, the child
  // holds the only reference to the original amap; the child's fault must
  // clear needs-copy without allocating a new amap.
  World w(VmKind::kUvm);
  auto* vm = static_cast<uvm::Uvm*>(w.vm.get());
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr addr = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &addr, 3 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, addr, 3 * sim::kPageSize, std::byte{1});
  kern::Proc* c = w.kernel->Fork(p);
  std::uint64_t amaps_before = w.machine.stats().amaps_allocated;
  // Parent writes middle page: allocates a second amap.
  w.kernel->TouchWrite(p, addr + sim::kPageSize, 1, std::byte{2});
  EXPECT_EQ(amaps_before + 1, w.machine.stats().amaps_allocated);
  // Child writes right page: needs-copy cleared with NO new amap.
  w.kernel->TouchWrite(c, addr + 2 * sim::kPageSize, 1, std::byte{3});
  EXPECT_EQ(amaps_before + 1, w.machine.stats().amaps_allocated);
  EXPECT_EQ(2u, vm->LiveAmaps());
  w.kernel->Exit(c);
  w.CheckInvariants();
}

TEST(AnonSemanticsTest, AnonCountMatchesAccessiblePages) {
  // The paper's §5.3 claim: amap/anon refcounts track exactly the pages
  // that are accessible; nothing leaks through fork/write/exit churn.
  World w(VmKind::kUvm);
  auto* vm = static_cast<uvm::Uvm*>(w.vm.get());
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr addr = 0;
  const std::size_t npages = 16;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &addr, npages * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, addr, npages * sim::kPageSize, std::byte{1});
  for (int round = 0; round < 6; ++round) {
    kern::Proc* c = w.kernel->Fork(p);
    w.kernel->TouchWrite(c, addr, (npages / 2) * sim::kPageSize, std::byte{2});
    w.kernel->Exit(c);
    w.kernel->TouchWrite(p, addr, (npages / 2) * sim::kPageSize, std::byte{3});
  }
  // Only the parent is alive: exactly npages pages are reachable.
  EXPECT_EQ(npages, vm->LiveAnons());
  w.CheckInvariants();
}

}  // namespace
