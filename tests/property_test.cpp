// Property-based tests: long random sequences of VM operations (mmap,
// munmap, mprotect, fork, exit, writes, reads, sysctl, mlock, pagedaemon
// pressure) run against a flat reference model of every process's address
// space. After every read the observed byte must match the model; VM
// invariants are checked periodically. Parameterized over both systems and
// several seeds.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "src/harness/world.h"
#include "src/sim/rng.h"

namespace {

using harness::VmKind;
using harness::World;
using harness::WorldConfig;

// Reference model of one page of one process's address space.
struct PageModel {
  std::byte value{0};
  bool writable = true;
};

// Per-process model: page-aligned va -> PageModel. COW semantics make each
// process's view independent for private anonymous memory, which is what
// the model captures; fork simply copies the map.
using ProcModel = std::map<sim::Vaddr, PageModel>;

struct ModelProc {
  kern::Proc* proc;
  ProcModel pages;
};

class PropertyTest : public ::testing::TestWithParam<std::tuple<VmKind, std::uint64_t>> {};

TEST_P(PropertyTest, RandomOpsMatchReferenceModel) {
  auto [kind, seed] = GetParam();
  WorldConfig cfg;
  cfg.ram_pages = 1024;  // 4 MB: small enough that paging happens naturally
  cfg.swap_slots = 16384;
  World w(kind, cfg);
  sim::Rng rng(seed);

  std::vector<ModelProc> procs;
  procs.push_back(ModelProc{w.kernel->Spawn(), {}});

  constexpr int kOps = 1200;
  constexpr std::size_t kMaxProcs = 6;

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
    switch (rng.Below(12)) {
      case 0: {  // mmap a fresh anonymous region
        std::uint64_t npages = rng.Range(1, 16);
        sim::Vaddr addr = 0;
        int err = w.kernel->MmapAnon(mp.proc, &addr, npages * sim::kPageSize, kern::MapAttrs{});
        ASSERT_EQ(sim::kOk, err);
        for (std::uint64_t i = 0; i < npages; ++i) {
          mp.pages[addr + i * sim::kPageSize] = PageModel{};
        }
        break;
      }
      case 1: {  // munmap a random subrange
        auto va = random_mapped_page(mp);
        if (!va.has_value()) {
          break;
        }
        std::uint64_t npages = rng.Range(1, 4);
        ASSERT_EQ(sim::kOk, w.kernel->Munmap(mp.proc, *va, npages * sim::kPageSize));
        for (std::uint64_t i = 0; i < npages; ++i) {
          mp.pages.erase(*va + i * sim::kPageSize);
        }
        break;
      }
      case 2:
      case 3:
      case 4: {  // write one page
        auto va = random_mapped_page(mp);
        if (!va.has_value()) {
          break;
        }
        auto fill = static_cast<std::byte>(rng.Below(256));
        int err = w.kernel->TouchWrite(mp.proc, *va, 1, fill);
        PageModel& pg = mp.pages[*va];
        if (pg.writable) {
          ASSERT_EQ(sim::kOk, err) << "write to writable page failed";
          pg.value = fill;
        } else {
          ASSERT_EQ(sim::kErrProt, err) << "write to read-only page succeeded";
        }
        break;
      }
      case 5:
      case 6:
      case 7: {  // read-verify one page
        auto va = random_mapped_page(mp);
        if (!va.has_value()) {
          break;
        }
        std::vector<std::byte> b(1);
        ASSERT_EQ(sim::kOk, w.kernel->ReadMem(mp.proc, *va, b));
        ASSERT_EQ(mp.pages[*va].value, b[0]) << "mismatch at " << std::hex << *va;
        break;
      }
      case 8: {  // mprotect toggle
        auto va = random_mapped_page(mp);
        if (!va.has_value()) {
          break;
        }
        PageModel& pg = mp.pages[*va];
        sim::Prot prot = pg.writable ? sim::Prot::kRead : sim::Prot::kReadWrite;
        ASSERT_EQ(sim::kOk, w.kernel->Mprotect(mp.proc, *va, sim::kPageSize, prot));
        pg.writable = !pg.writable;
        break;
      }
      case 9: {  // fork
        if (procs.size() >= kMaxProcs) {
          break;
        }
        kern::Proc* child = w.kernel->Fork(mp.proc);
        procs.push_back(ModelProc{child, mp.pages});  // COW: child copies view
        break;
      }
      case 10: {  // exit (keep at least one process)
        if (procs.size() <= 1) {
          break;
        }
        std::size_t idx = rng.Below(procs.size());
        w.kernel->Exit(procs[idx].proc);
        procs.erase(procs.begin() + static_cast<long>(idx));
        break;
      }
      case 11: {  // kernel services and memory pressure
        auto va = random_mapped_page(mp);
        if (va.has_value() && mp.pages[*va].writable) {
          if (rng.Chance(1, 2)) {
            ASSERT_EQ(sim::kOk, w.kernel->Sysctl(mp.proc, *va, sim::kPageSize));
            mp.pages[*va].value = std::byte{0x5c};  // sysctl fills the buffer
          } else {
            ASSERT_EQ(sim::kOk, w.kernel->Mlock(mp.proc, *va, sim::kPageSize));
            ASSERT_EQ(sim::kOk, w.kernel->Munlock(mp.proc, *va, sim::kPageSize));
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

  // Final sweep: every mapped page of every process must match the model.
  for (ModelProc& mp : procs) {
    for (const auto& [va, pg] : mp.pages) {
      std::vector<std::byte> b(1);
      ASSERT_EQ(sim::kOk, w.kernel->ReadMem(mp.proc, va, b));
      ASSERT_EQ(pg.value, b[0]) << "final sweep mismatch at " << std::hex << va;
    }
  }
  w.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PropertyTest,
    ::testing::Combine(::testing::Values(VmKind::kBsd, VmKind::kUvm),
                       ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull, 6ull, 7ull, 8ull)),
    [](const ::testing::TestParamInfo<std::tuple<VmKind, std::uint64_t>>& param_info) {
      return std::string(harness::VmKindName(std::get<0>(param_info.param))) + "_seed" +
             std::to_string(std::get<1>(param_info.param));
    });

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
