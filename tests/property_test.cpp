// Property-based tests: long random sequences of VM operations (mmap,
// munmap, mprotect, fork, exit, writes, reads, sysctl, mlock, pagedaemon
// pressure) checked against the reference model (tests/ref_model.h). Every
// read must return the model's page, byte for byte; VM invariants are
// checked periodically. Parameterized over both systems and several seeds.
#include <gtest/gtest.h>

#include <vector>

#include "src/harness/world.h"
#include "src/sim/rng.h"
#include "tests/ref_model.h"

namespace {

using harness::VmKind;
using harness::World;
using harness::WorldConfig;

class PropertyTest : public ::testing::TestWithParam<std::tuple<VmKind, std::uint64_t>> {};

TEST_P(PropertyTest, RandomOpsMatchReferenceModel) {
  auto [kind, seed] = GetParam();
  WorldConfig cfg;
  cfg.ram_pages = 1024;  // 4 MB: small enough that paging happens naturally
  cfg.swap_slots = 16384;
  World w(kind, cfg);
  sim::Rng rng(seed);
  refmodel::Model m(w);
  ASSERT_TRUE(m.Spawn());

  for (int op = 0; op < 1200; ++op) {
    refmodel::Space& s = m.procs[rng.Below(m.procs.size())];
    switch (rng.Below(12)) {
      case 0:  // mmap a fresh anonymous region
        ASSERT_TRUE(m.MmapAnon(s, rng.Range(1, 16)));
        break;
      case 1:  // munmap a random subrange
        if (auto va = m.PickPage(s, rng)) {
          ASSERT_TRUE(m.Munmap(s, *va, rng.Range(1, 4)));
        }
        break;
      case 2:
      case 3:
      case 4:  // write one byte, refused by a read-only page
        if (auto va = m.PickPage(s, rng)) {
          ASSERT_TRUE(m.Write(s, *va, static_cast<std::byte>(rng.Below(256))));
        }
        break;
      case 5:
      case 6:
      case 7:
        if (auto va = m.PickPage(s, rng)) {
          ASSERT_TRUE(m.Check(s, *va));
        }
        break;
      case 8:
        if (auto va = m.PickPage(s, rng)) {
          ASSERT_TRUE(m.ToggleProt(s, *va));
        }
        break;
      case 9:
        if (m.procs.size() < 6) {
          ASSERT_TRUE(m.Fork(s));
        }
        break;
      case 10:  // exit (keep at least one process)
        if (m.procs.size() > 1) {
          m.Exit(rng.Below(m.procs.size()));
        }
        break;
      case 11: {  // kernel services and memory pressure
        auto va = m.PickPage(s, rng);
        if (va.has_value() && s.pages.at(*va).writable) {
          if (rng.Chance(1, 2)) {
            ASSERT_TRUE(m.Sysctl(s, *va));
          } else {
            ASSERT_EQ(sim::kOk, w.kernel->Mlock(s.proc, *va, sim::kPageSize));
            ASSERT_EQ(sim::kOk, w.kernel->Munlock(s.proc, *va, sim::kPageSize));
          }
        }
        if (rng.Chance(1, 4)) {
          w.vm->PageDaemon(w.pm.free_pages() + rng.Range(8, 64));
        }
        break;
      }
    }
    if (op % 100 == 99) {
      w.CheckInvariants();
    }
  }
  ASSERT_TRUE(m.CheckAll());
  w.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PropertyTest,
    ::testing::Combine(::testing::Values(VmKind::kBsd, VmKind::kUvm),
                       ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull, 6ull, 7ull, 8ull)),
    refmodel::VmSeedName);

// A second property: the same op stream must leave BOTH systems with
// byte-identical user-visible memory (they implement the same semantics).
TEST(CrossSystemEquivalenceTest, SameOpsSameVisibleMemory) {
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    WorldConfig cfg;
    cfg.ram_pages = 512;
    World wb(VmKind::kBsd, cfg);
    World wu(VmKind::kUvm, cfg);
    sim::Rng rng(seed);

    struct Pair {
      kern::Proc* b;
      kern::Proc* u;
      std::vector<sim::Vaddr> pages;
    };
    std::vector<Pair> procs;
    procs.push_back(Pair{wb.kernel->Spawn(), wu.kernel->Spawn(), {}});

    for (int op = 0; op < 600; ++op) {
      Pair& pr = procs[rng.Below(procs.size())];
      switch (rng.Below(8)) {
        case 0: {
          std::uint64_t npages = rng.Range(1, 8);
          sim::Vaddr ab = 0;
          sim::Vaddr au = 0;
          ASSERT_EQ(sim::kOk,
                    wb.kernel->MmapAnon(pr.b, &ab, npages * sim::kPageSize, kern::MapAttrs{}));
          ASSERT_EQ(sim::kOk,
                    wu.kernel->MmapAnon(pr.u, &au, npages * sim::kPageSize, kern::MapAttrs{}));
          ASSERT_EQ(ab, au) << "address allocation diverged";
          for (std::uint64_t i = 0; i < npages; ++i) {
            pr.pages.push_back(ab + i * sim::kPageSize);
          }
          break;
        }
        case 1:
        case 2:
        case 3: {
          if (pr.pages.empty()) {
            break;
          }
          sim::Vaddr va = pr.pages[rng.Below(pr.pages.size())];
          auto fill = static_cast<std::byte>(rng.Below(256));
          ASSERT_EQ(wb.kernel->TouchWrite(pr.b, va, 1, fill),
                    wu.kernel->TouchWrite(pr.u, va, 1, fill));
          break;
        }
        case 4:
        case 5: {
          if (pr.pages.empty()) {
            break;
          }
          sim::Vaddr va = pr.pages[rng.Below(pr.pages.size())];
          std::vector<std::byte> bb(1);
          std::vector<std::byte> bu(1);
          int eb = wb.kernel->ReadMem(pr.b, va, bb);
          int eu = wu.kernel->ReadMem(pr.u, va, bu);
          ASSERT_EQ(eb, eu);
          if (eb == sim::kOk) {
            ASSERT_EQ(bb[0], bu[0]) << "divergence at " << std::hex << va;
          }
          break;
        }
        case 6: {
          if (procs.size() >= 5) {
            break;
          }
          procs.push_back(Pair{wb.kernel->Fork(pr.b), wu.kernel->Fork(pr.u), pr.pages});
          break;
        }
        case 7: {
          wb.vm->PageDaemon(wb.pm.free_pages() + 16);
          wu.vm->PageDaemon(wu.pm.free_pages() + 16);
          break;
        }
      }
    }
    // Full final comparison.
    for (Pair& pr : procs) {
      for (sim::Vaddr va : pr.pages) {
        std::vector<std::byte> bb(1);
        std::vector<std::byte> bu(1);
        int eb = wb.kernel->ReadMem(pr.b, va, bb);
        int eu = wu.kernel->ReadMem(pr.u, va, bu);
        ASSERT_EQ(eb, eu);
        if (eb == sim::kOk) {
          ASSERT_EQ(bb[0], bu[0]);
        }
      }
    }
    wb.CheckInvariants();
    wu.CheckInvariants();
  }
}

}  // namespace
