// The reference model behind the randomized VM tests (property, file
// property and soak): what every byte of every process's address space
// should read, kept with no code shared with either VM system, so a bug in
// code both VMs share (range walks, the fault entry, the pagedaemon scan)
// still shows as a mismatch.
//
// A page is anonymous or a page of a model file, shared or private,
// writable or not, and has its own contents once written. An unwritten page
// shows its file's current contents, or zeros. A write through a shared
// file mapping goes into the file, so every mapper sees it; any other write
// gives the page its own copy. Fork copies the parent's view. mlock, munlock
// and msync change no byte a process can read: the tests issue them as
// plain kernel calls. Shared anonymous mappings are not modelled.
//
// Each operation makes the kernel call, checks the return value against the
// model, records the effect and returns a ::testing::AssertionResult for
// the test's ASSERT_TRUE or EXPECT_TRUE. Reads check whole pages.
//
// Also here: the gtest name generators of the suites parameterized by VM
// ("bsdvm") and by (VM, seed) ("bsdvm_seed3").
#ifndef TESTS_REF_MODEL_H_
#define TESTS_REF_MODEL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/harness/world.h"
#include "src/sim/rng.h"

namespace refmodel {

inline std::string VmName(const ::testing::TestParamInfo<harness::VmKind>& info) {
  return harness::VmKindName(info.param);
}

inline std::string VmSeedName(
    const ::testing::TestParamInfo<std::tuple<harness::VmKind, std::uint64_t>>& info) {
  return std::string(harness::VmKindName(std::get<0>(info.param))) + "_seed" +
         std::to_string(std::get<1>(info.param));
}

using Bytes = std::vector<std::byte>;

struct Page {
  Bytes* file = nullptr;  // the model file behind the page; null for anonymous memory
  std::size_t fidx = 0;   // page index within the file
  bool shared = false;
  bool writable = true;
  Bytes own;  // the page's own contents once written; empty until then
};

struct Space {
  kern::Proc* proc = nullptr;
  std::map<sim::Vaddr, Page> pages;  // page-aligned va -> page
};

class Model {
 public:
  explicit Model(harness::World& w) : w_(w) {}

  // Live processes in creation order; tests pick among them by index.
  std::vector<Space> procs;

  // A file of `npages` filled with the filesystem's pattern.
  void CreateFile(const std::string& name, std::size_t npages) {
    w_.fs.CreateFilePattern(name, npages * sim::kPageSize);
    Bytes& data = files_[name];
    data.resize(npages * sim::kPageSize);
    vfs::Filesystem::FillPattern(name, 0, data);
  }

  ::testing::AssertionResult Spawn() { return Adopt(w_.kernel->Spawn(), {}); }

  // The child starts with the parent's view.
  ::testing::AssertionResult Fork(Space& parent) {
    std::map<sim::Vaddr, Page> view = parent.pages;  // copied before `procs` may grow
    return Adopt(w_.kernel->Fork(parent.proc), std::move(view));
  }

  void Exit(std::size_t idx) {
    w_.kernel->Exit(procs[idx].proc);
    procs.erase(procs.begin() + static_cast<std::ptrdiff_t>(idx));
  }

  ::testing::AssertionResult MmapAnon(Space& s, std::uint64_t npages) {
    sim::Vaddr addr = 0;
    int err = w_.kernel->MmapAnon(s.proc, &addr, npages * sim::kPageSize, kern::MapAttrs{});
    return Mapped(s, err, addr, npages, Page{});
  }

  // Pages [off, off + npages) of `name`.
  ::testing::AssertionResult MmapFile(Space& s, const std::string& name, std::size_t off,
                                      std::size_t npages, bool shared) {
    kern::MapAttrs attrs;
    attrs.shared = shared;
    sim::Vaddr addr = 0;
    int err = w_.kernel->Mmap(s.proc, &addr, npages * sim::kPageSize, name, off * sim::kPageSize,
                              attrs);
    return Mapped(s, err, addr, npages, Page{&files_.at(name), off, shared, true, {}});
  }

  // The range may cover holes: unmapping one is not an error.
  ::testing::AssertionResult Munmap(Space& s, sim::Vaddr va, std::uint64_t npages) {
    int err = w_.kernel->Munmap(s.proc, va, npages * sim::kPageSize);
    for (std::uint64_t i = 0; i < npages; ++i) {
      s.pages.erase(va + i * sim::kPageSize);
    }
    return Returned("munmap", va, err, sim::kOk);
  }

  // One byte at `offset` into the page; a read-only page refuses it.
  ::testing::AssertionResult Write(Space& s, sim::Vaddr va, std::byte value,
                                   std::size_t offset = 0) {
    int err = w_.kernel->WriteMem(s.proc, va + offset, std::span<const std::byte>(&value, 1));
    Page& pg = s.pages.at(va);
    if (!pg.writable) {
      return Returned("write", va + offset, err, sim::kErrProt);
    }
    Store(pg)[offset] = value;
    return Returned("write", va + offset, err, sim::kOk);
  }

  // sysctl(2) into a writable page fills the whole page with its result.
  ::testing::AssertionResult Sysctl(Space& s, sim::Vaddr va) {
    int err = w_.kernel->Sysctl(s.proc, va, sim::kPageSize);
    std::ranges::fill(Store(s.pages.at(va)), std::byte{0x5c});
    return Returned("sysctl", va, err, sim::kOk);
  }

  // mprotect(2) the page read-only if it is writable, else read-write.
  ::testing::AssertionResult ToggleProt(Space& s, sim::Vaddr va) {
    Page& pg = s.pages.at(va);
    pg.writable = !pg.writable;
    int err = w_.kernel->Mprotect(s.proc, va, sim::kPageSize,
                                  pg.writable ? sim::Prot::kReadWrite : sim::Prot::kRead);
    return Returned("mprotect", va, err, sim::kOk);
  }

  // Read the whole page and compare every byte with the model.
  ::testing::AssertionResult Check(Space& s, sim::Vaddr va) {
    Bytes got(sim::kPageSize);
    if (int err = w_.kernel->ReadMem(s.proc, va, got); err != sim::kOk) {
      return Returned("read", va, err, sim::kOk);
    }
    auto [g, want] = std::ranges::mismatch(got, View(s.pages.at(va)));
    if (g == got.end()) {
      return ::testing::AssertionSuccess();
    }
    // One stream: AssertionResult's operator<< would drop std::hex after
    // the value it is streamed with.
    std::ostringstream msg;
    msg << "pid " << s.proc->pid << " read 0x" << std::hex << static_cast<int>(*g) << " at 0x"
        << va << " + 0x" << (g - got.begin()) << ", model has 0x" << static_cast<int>(*want);
    return ::testing::AssertionFailure() << msg.str();
  }

  // Check every page of every process.
  ::testing::AssertionResult CheckAll() {
    for (Space& s : procs) {
      for (const auto& [va, pg] : s.pages) {
        if (auto r = Check(s, va); !r) {
          return r;
        }
      }
    }
    return ::testing::AssertionSuccess();
  }

  // A uniformly chosen mapped page of `s` (one RNG draw), if it has any.
  static std::optional<sim::Vaddr> PickPage(const Space& s, sim::Rng& rng) {
    if (s.pages.empty()) {
      return std::nullopt;
    }
    return std::next(s.pages.begin(), static_cast<std::ptrdiff_t>(rng.Below(s.pages.size())))
        ->first;
  }

 private:
  ::testing::AssertionResult Adopt(kern::Proc* p, std::map<sim::Vaddr, Page> view) {
    if (p == nullptr) {
      return ::testing::AssertionFailure() << "no process: kernel resources exhausted";
    }
    procs.push_back(Space{p, std::move(view)});
    return ::testing::AssertionSuccess();
  }

  ::testing::AssertionResult Mapped(Space& s, int err, sim::Vaddr addr, std::uint64_t npages,
                                    Page pg) {
    for (std::uint64_t i = 0; err == sim::kOk && i < npages; ++i, ++pg.fidx) {
      s.pages[addr + i * sim::kPageSize] = pg;
    }
    return Returned("mmap", addr, err, sim::kOk);
  }

  static ::testing::AssertionResult Returned(const char* op, sim::Vaddr va, int err, int want) {
    if (err == want) {
      return ::testing::AssertionSuccess();
    }
    std::ostringstream msg;
    msg << op << " at 0x" << std::hex << va << " returned " << std::dec << err
        << ", model expects " << want;
    return ::testing::AssertionFailure() << msg.str();
  }

  static std::span<std::byte> FilePage(const Page& pg) {
    return std::span<std::byte>(*pg.file).subspan(pg.fidx * sim::kPageSize, sim::kPageSize);
  }

  // What a read of `pg` returns.
  std::span<const std::byte> View(const Page& pg) const {
    if (!pg.own.empty()) {
      return pg.own;
    }
    if (pg.file != nullptr) {
      return FilePage(pg);
    }
    return zeros_;
  }

  // Where a write to `pg` lands: the file for a shared file page, else the
  // page's own copy, taken from what the page showed until now.
  std::span<std::byte> Store(Page& pg) {
    if (pg.file != nullptr && pg.shared) {
      return FilePage(pg);
    }
    if (pg.own.empty()) {
      std::span<const std::byte> now = View(pg);
      pg.own.assign(now.begin(), now.end());
    }
    return pg.own;
  }

  harness::World& w_;
  std::map<std::string, Bytes> files_;  // each file's current contents
  const Bytes zeros_ = Bytes(sim::kPageSize);
};

}  // namespace refmodel

#endif  // TESTS_REF_MODEL_H_
