// Property test over file-backed memory: random sequences of shared and
// private file mappings, anonymous mappings, writes, reads, forks, msync,
// and memory pressure, checked against the reference model
// (tests/ref_model.h) of each file's current contents and each process's
// private copies. This exercises the full two-level (amap/object) and
// chain (shadow/object) lookup paths with file data underneath.
#include <gtest/gtest.h>

#include <string>

#include "src/harness/world.h"
#include "src/sim/rng.h"
#include "tests/ref_model.h"

namespace {

using harness::VmKind;
using harness::World;
using harness::WorldConfig;

constexpr std::size_t kFiles = 4;
constexpr std::size_t kFilePages = 16;

class FilePropertyTest : public ::testing::TestWithParam<std::tuple<VmKind, std::uint64_t>> {};

TEST_P(FilePropertyTest, RandomFileOpsMatchModel) {
  auto [kind, seed] = GetParam();
  WorldConfig cfg;
  cfg.ram_pages = 768;  // small enough to force reclaim of file pages
  World w(kind, cfg);
  sim::Rng rng(seed);
  refmodel::Model m(w);
  for (std::size_t f = 0; f < kFiles; ++f) {
    m.CreateFile("/pf" + std::to_string(f), kFilePages);
  }
  ASSERT_TRUE(m.Spawn());

  for (int op = 0; op < 900; ++op) {
    refmodel::Space& s = m.procs[rng.Below(m.procs.size())];
    switch (rng.Below(11)) {
      case 0: {  // map a file range, shared or private
        std::size_t f = rng.Below(kFiles);
        std::size_t off = rng.Below(kFilePages - 1);
        std::size_t n = rng.Range(1, kFilePages - off);
        bool shared = rng.Chance(1, 2);
        ASSERT_TRUE(m.MmapFile(s, "/pf" + std::to_string(f), off, n, shared));
        break;
      }
      case 1:  // map anonymous
        ASSERT_TRUE(m.MmapAnon(s, rng.Range(1, 8)));
        break;
      case 2:
        if (auto va = m.PickPage(s, rng)) {
          ASSERT_TRUE(m.Munmap(s, *va, rng.Range(1, 3)));
        }
        break;
      case 3:
      case 4:  // write one byte: into the file through a shared mapping
        if (auto va = m.PickPage(s, rng)) {
          ASSERT_TRUE(m.Write(s, *va, static_cast<std::byte>(rng.Below(256))));
        }
        break;
      case 5:
      case 6:
      case 7:
        if (auto va = m.PickPage(s, rng)) {
          ASSERT_TRUE(m.Check(s, *va)) << "op " << op;
        }
        break;
      case 8:  // fork: private pages copy on write, shared ones stay shared
        if (m.procs.size() < 5) {
          ASSERT_TRUE(m.Fork(s));
        }
        break;
      case 9:
        if (m.procs.size() > 1) {
          m.Exit(rng.Below(m.procs.size()));
        }
        break;
      case 10:  // msync + memory pressure
        if (auto va = m.PickPage(s, rng)) {
          ASSERT_EQ(sim::kOk, w.kernel->Msync(s.proc, *va, sim::kPageSize));
        }
        if (rng.Chance(1, 3)) {
          w.vm->PageDaemon(w.pm.free_pages() + rng.Range(16, 96));
        }
        break;
    }
    if (op % 150 == 149) {
      w.CheckInvariants();
    }
  }
  ASSERT_TRUE(m.CheckAll());
  // Then exit every process and flush every page: writeback of the shared
  // file pages must leave the system sound.
  for (refmodel::Space& s : m.procs) {
    w.kernel->Exit(s.proc);
  }
  w.vm->PageDaemon(w.pm.total_pages());
  w.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FilePropertyTest,
    ::testing::Combine(::testing::Values(VmKind::kBsd, VmKind::kUvm),
                       ::testing::Values(21ull, 22ull, 23ull, 24ull, 25ull, 26ull)),
    refmodel::VmSeedName);

}  // namespace
