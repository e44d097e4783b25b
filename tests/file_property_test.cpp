// Property test over file-backed memory: random sequences of shared and
// private file mappings, anonymous mappings, writes, reads, forks, msync,
// and memory pressure — validated against a reference model of each file's
// current contents and each process's private COW overlays. This exercises
// the full two-level (amap/object) and chain (shadow/object) lookup paths
// with file data underneath.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/harness/world.h"
#include "src/sim/rng.h"

namespace {

using harness::VmKind;
using harness::World;
using harness::WorldConfig;

constexpr std::size_t kFiles = 4;
constexpr std::size_t kFilePages = 16;

struct MappedPage {
  bool is_file = false;
  bool shared = false;
  std::size_t file = 0;
  std::size_t fidx = 0;                    // page index within the file
  std::optional<std::byte> private_value;  // written through a private mapping
};

struct ModelProc {
  kern::Proc* proc;
  std::map<sim::Vaddr, MappedPage> pages;
};

class FilePropertyTest : public ::testing::TestWithParam<std::tuple<VmKind, std::uint64_t>> {};

TEST_P(FilePropertyTest, RandomFileOpsMatchModel) {
  auto [kind, seed] = GetParam();
  WorldConfig cfg;
  cfg.ram_pages = 768;  // small enough to force reclaim of file pages
  World w(kind, cfg);
  sim::Rng rng(seed);

  // File content model: the authoritative byte of each page of each file.
  std::vector<std::vector<std::byte>> files(kFiles);
  for (std::size_t f = 0; f < kFiles; ++f) {
    std::string name = "/pf" + std::to_string(f);
    w.fs.CreateFilePattern(name, kFilePages * sim::kPageSize);
    files[f].resize(kFilePages);
    for (std::size_t i = 0; i < kFilePages; ++i) {
      files[f][i] = vfs::Filesystem::PatternByte(name, i * sim::kPageSize);
    }
  }

  std::vector<ModelProc> procs;
  procs.push_back(ModelProc{w.kernel->Spawn(), {}});

  auto expected = [&](const MappedPage& mp) {
    if (mp.private_value.has_value()) {
      return *mp.private_value;
    }
    if (mp.is_file) {
      return files[mp.file][mp.fidx];
    }
    return std::byte{0};
  };

  auto random_page = [&](ModelProc& mp) -> std::optional<sim::Vaddr> {
    if (mp.pages.empty()) {
      return std::nullopt;
    }
    auto it = mp.pages.begin();
    std::advance(it, static_cast<long>(rng.Below(mp.pages.size())));
    return it->first;
  };

  for (int op = 0; op < 900; ++op) {
    ModelProc& mp = procs[rng.Below(procs.size())];
    switch (rng.Below(11)) {
      case 0: {  // map a file range, shared or private
        std::size_t f = rng.Below(kFiles);
        std::size_t off = rng.Below(kFilePages - 1);
        std::size_t n = rng.Range(1, kFilePages - off);
        bool shared = rng.Chance(1, 2);
        kern::MapAttrs attrs;
        attrs.shared = shared;
        sim::Vaddr addr = 0;
        ASSERT_EQ(sim::kOk, w.kernel->Mmap(mp.proc, &addr, n * sim::kPageSize,
                                           "/pf" + std::to_string(f), off * sim::kPageSize,
                                           attrs));
        for (std::size_t i = 0; i < n; ++i) {
          MappedPage pg;
          pg.is_file = true;
          pg.shared = shared;
          pg.file = f;
          pg.fidx = off + i;
          mp.pages[addr + i * sim::kPageSize] = pg;
        }
        break;
      }
      case 1: {  // map anonymous
        std::uint64_t n = rng.Range(1, 8);
        sim::Vaddr addr = 0;
        ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(mp.proc, &addr, n * sim::kPageSize,
                                               kern::MapAttrs{}));
        for (std::uint64_t i = 0; i < n; ++i) {
          mp.pages[addr + i * sim::kPageSize] = MappedPage{};
        }
        break;
      }
      case 2: {  // munmap
        auto va = random_page(mp);
        if (!va.has_value()) {
          break;
        }
        std::uint64_t n = rng.Range(1, 3);
        ASSERT_EQ(sim::kOk, w.kernel->Munmap(mp.proc, *va, n * sim::kPageSize));
        for (std::uint64_t i = 0; i < n; ++i) {
          mp.pages.erase(*va + i * sim::kPageSize);
        }
        break;
      }
      case 3:
      case 4: {  // write a page
        auto va = random_page(mp);
        if (!va.has_value()) {
          break;
        }
        auto fill = static_cast<std::byte>(rng.Below(256));
        ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(mp.proc, *va, 1, fill));
        MappedPage& pg = mp.pages[*va];
        if (pg.is_file && pg.shared) {
          files[pg.file][pg.fidx] = fill;  // visible to every shared mapper
        } else {
          pg.private_value = fill;
        }
        break;
      }
      case 5:
      case 6:
      case 7: {  // read-verify
        auto va = random_page(mp);
        if (!va.has_value()) {
          break;
        }
        std::vector<std::byte> b(1);
        ASSERT_EQ(sim::kOk, w.kernel->ReadMem(mp.proc, *va, b));
        ASSERT_EQ(expected(mp.pages[*va]), b[0])
            << "op " << op << " va " << std::hex << *va;
        break;
      }
      case 8: {  // fork: child copies the view (private COW; shared shares)
        if (procs.size() >= 5) {
          break;
        }
        kern::Proc* child = w.kernel->Fork(mp.proc);
        procs.push_back(ModelProc{child, mp.pages});
        break;
      }
      case 9: {  // exit
        if (procs.size() <= 1) {
          break;
        }
        std::size_t idx = rng.Below(procs.size());
        w.kernel->Exit(procs[idx].proc);
        procs.erase(procs.begin() + static_cast<long>(idx));
        break;
      }
      case 10: {  // msync + memory pressure
        auto va = random_page(mp);
        if (va.has_value()) {
          ASSERT_EQ(sim::kOk, w.kernel->Msync(mp.proc, *va, sim::kPageSize));
        }
        if (rng.Chance(1, 3)) {
          w.vm->PageDaemon(w.pm.free_pages() + rng.Range(16, 96));
        }
        break;
      }
    }
    if (op % 150 == 149) {
      w.CheckInvariants();
    }
  }

  // Final sweep over every process and page.
  for (ModelProc& mp : procs) {
    for (const auto& [va, pg] : mp.pages) {
      std::vector<std::byte> b(1);
      ASSERT_EQ(sim::kOk, w.kernel->ReadMem(mp.proc, va, b));
      ASSERT_EQ(expected(pg), b[0]) << "final sweep va " << std::hex << va;
    }
  }
  // And the files on disk must match the model after a full flush.
  for (ModelProc& mp : procs) {
    w.kernel->Exit(mp.proc);
  }
  w.vm->PageDaemon(w.pm.total_pages());
  w.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FilePropertyTest,
    ::testing::Combine(::testing::Values(VmKind::kBsd, VmKind::kUvm),
                       ::testing::Values(21ull, 22ull, 23ull, 24ull, 25ull, 26ull)),
    [](const ::testing::TestParamInfo<std::tuple<VmKind, std::uint64_t>>& param_info) {
      return std::string(harness::VmKindName(std::get<0>(param_info.param))) + "_seed" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
