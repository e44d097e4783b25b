// Host wall-time harness: how fast the simulator itself runs on the host.
// Every other bench in this repo reports virtual time from the cost model;
// this one times the hot-path structures (the sorted-index map, the radix
// page store, the pmap's pv chains, the slab pools) and three whole-
// simulator workloads on both VM systems, and writes BENCH_host.json, which
// scripts/diff_bench_host.py checks against the committed baseline in CI.
//
// A host time is only comparable with another if the host cannot move the
// unit, and the hosts this runs on drift by tens of percent over minutes.
// So each micro and each workload runs kReps times, with a speed-index
// measurement before every timed run, and reports its median over the
// run's slowdown: its time on the reference host (see Calibration). The
// repetitions go round-robin over the items, so a host phase that lasts a
// fraction of the run touches one repetition of many items rather than
// every repetition of one. The workloads also report their virtual time
// and lookup counters. Those are deterministic: every repetition must
// produce the same values, and CI requires them to equal the baseline's
// exactly.
//
// Usage: bench_host_perf [--out FILE]   (default BENCH_host.json)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "src/bsdvm/vm_object.h"
#include "src/core/amap.h"
#include "src/core/uvm_map.h"
#include "src/kern/workloads.h"
#include "src/mmu/pmap.h"
#include "src/phys/page.h"
#include "src/phys/page_store.h"
#include "src/sim/machine.h"
#include "src/sim/pool.h"

namespace {

using bench::PrintHeader;
using bench::VmKind;
using bench::World;

using Clock = std::chrono::steady_clock;

// Repetitions per micro and per workload.
constexpr int kReps = 5;

double HostNs(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Deterministic PRNG (xorshift64*) so lookup sequences and workload touch
// orders are identical across runs and machines.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed ? seed : 0x9e3779b97f4a7c15ull) {}
  std::uint64_t Next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545f4914f6cdd1dull;
  }
};

// ---------------------------------------------------------------------------
// The host speed index
// ---------------------------------------------------------------------------

// A copy of vmbench's calibration (vmbench/vmbench.cpp), with the same loops
// and reference times, so both tools report host time in the same
// reference-host units. vmbench/ belongs to the repository benchmark and is
// not edited to share it; the copy lives in this file because simlint's
// det-host-nondet rule exempts this file, the one bench allowed to read the
// host clock.
//
// Two fixed loops of page copies and hash-table probes, like the
// simulator's own host work: one inside the core's caches and one far
// outside them. A loop's slowdown is its median time over its reference
// time; the run's slowdown is the geometric mean of the two, and every time
// this bench reports is a measured median divided by it.
std::uint64_t Mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

class CalibrationLoop {
 public:
  CalibrationLoop(std::size_t pages, std::uint64_t keys, std::uint64_t steps, std::uint64_t probes)
      : pages_(pages * sim::kPageSize),
        npages_(pages),
        keys_(keys),
        steps_(steps),
        probes_(probes) {
    for (std::uint64_t i = 0; i < keys_; ++i) {
      table_.emplace(Mix64(i), i);
    }
  }

  // Host nanoseconds one pass takes now.
  double Measure() {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < steps_; ++i) {
      const std::uint64_t z = Mix64(i + salt_++);
      const std::size_t a = z % npages_;
      const std::size_t b = (z >> 16) % npages_;
      std::memcpy(pages_.data() + a * sim::kPageSize, pages_.data() + b * sim::kPageSize,
                  sim::kPageSize);
      for (std::uint64_t k = 0; k < probes_; ++k) {
        acc += table_.find(Mix64((z + k) % keys_))->second;
      }
      // Feeds the sum back into the pages later copies read, so the probes
      // cannot be optimized away.
      pages_[a * sim::kPageSize + z % sim::kPageSize] = static_cast<std::byte>(acc);
    }
    return HostNs(t0, Clock::now());
  }

 private:
  std::vector<std::byte> pages_;
  std::unordered_map<std::uint64_t, std::uint64_t> table_;
  const std::size_t npages_;
  const std::uint64_t keys_;
  const std::uint64_t steps_;
  const std::uint64_t probes_;
  std::uint64_t salt_ = 0;
};

class Calibration {
 public:
  void Measure() {
    small_ns_.push_back(small_.Measure());
    large_ns_.push_back(large_.Measure());
  }
  // Host slowdown against the reference over every Measure() call so far;
  // >1 means the host runs slower than the reference.
  double Slowdown() const {
    return std::sqrt(Median(small_ns_) / kSmallReferenceNs * Median(large_ns_) / kLargeReferenceNs);
  }

 private:
  // About what each loop took on a 4-core Xeon host with no contention.
  static constexpr double kSmallReferenceNs = 270000;
  static constexpr double kLargeReferenceNs = 540000;

  CalibrationLoop small_{64, 4096, 400, 32};      // 256 KB of pages, 4K keys
  CalibrationLoop large_{8192, 262144, 200, 16};  // 32 MB of pages, 256K keys
  std::vector<double> small_ns_;
  std::vector<double> large_ns_;
};

// ---------------------------------------------------------------------------
// Microbenchmarks: each returns one repetition's host ns per op
// ---------------------------------------------------------------------------

constexpr std::size_t kMapEntries = 1000;
constexpr sim::Vaddr kMapBase = 0x10000;
// Each entry spans one page with a one-page hole after it, so misses and
// hits both occur and the address space is sparse like a real map.
sim::Vaddr EntryStart(std::size_t i) { return kMapBase + i * 2 * sim::kPageSize; }

uvm::UvmMapEntry MakeEntry(std::size_t i) {
  uvm::UvmMapEntry e;
  e.start = EntryStart(i);
  e.end = EntryStart(i) + sim::kPageSize;
  return e;
}

void FillMap(uvm::UvmMap& map) {
  for (std::size_t i = 0; i < kMapEntries; ++i) {
    (void)map.InsertEntry(MakeEntry(i));
  }
}

// Random lookups over the populated span of a 1000-entry map: about half
// land inside an entry.
double MicroMapLookup() {
  constexpr std::size_t kLookups = 20000;
  Rng rng(42);
  std::vector<sim::Vaddr> vas(kLookups);
  for (auto& va : vas) {
    va = kMapBase + rng.Next() % (kMapEntries * 2 * sim::kPageSize);
  }
  sim::Machine m;
  uvm::UvmMap map(m, 0x1000, 1ull << 40, 0);
  FillMap(map);
  auto t0 = Clock::now();
  for (sim::Vaddr va : vas) {
    (void)map.LookupEntry(va);
  }
  return HostNs(t0, Clock::now()) / kLookups;
}

// Random erase/re-insert churn at a steady population of 1000 entries.
double MicroMapMutate() {
  constexpr std::size_t kOps = 5000;
  Rng rng(7);
  std::vector<std::size_t> idx(kOps);
  for (auto& v : idx) {
    v = rng.Next() % kMapEntries;
  }
  sim::Machine m;
  uvm::UvmMap map(m, 0x1000, 1ull << 40, 0);
  FillMap(map);
  auto t0 = Clock::now();
  for (std::size_t i : idx) {
    map.EraseEntry(map.LookupEntry(EntryStart(i)));
    (void)map.InsertEntry(MakeEntry(i));
  }
  return HostNs(t0, Clock::now()) / kOps;
}

// Random lookups in a page store of 64k pages; half the probes miss.
double MicroPageStore() {
  constexpr std::uint64_t kPages = 65536;
  constexpr std::size_t kLookups = 20000;
  phys::Page dummy;
  Rng rng(99);
  std::vector<std::uint64_t> keys(kLookups);
  for (auto& k : keys) {
    k = rng.Next() % (kPages * 2);
  }
  sim::PoolResource chunk_pool;
  sim::Stats stats;
  phys::PageStore store(chunk_pool, &stats);
  for (std::uint64_t i = 0; i < kPages; ++i) {
    store.Put(i, &dummy);
  }
  std::uint64_t found = 0;
  auto t0 = Clock::now();
  for (std::uint64_t k : keys) {
    found += store.Lookup(k) != nullptr ? 1 : 0;
  }
  const double ns = HostNs(t0, Clock::now());
  SIM_ASSERT(found > 0 && found < kLookups);
  return ns / kLookups;
}

// Untimed warm-up rounds before each timed loop, so every churn micro is
// measured steady-state (slabs carved, backing pages faulted in).
constexpr std::size_t kChurnRounds = 312;
constexpr std::size_t kWarmupRounds = kChurnRounds / 16 + 1;

// pv churn: enter 512 mappings of one hot frame (a shared-library text page
// in a process fleet), then PageProtect(kNone) tears them all down; one op
// is one mapping entered and removed.
double MicroPvChurn() {
  constexpr std::size_t kPvMappings = 512;
  constexpr sim::Vaddr kVaBase = 0x100000;
  sim::Machine m;
  phys::PhysMem pm(m, 64);
  mmu::MmuContext ctx(pm);
  phys::Page* page = pm.AllocPage(phys::OwnerKind::kKernel, nullptr, 0, false);
  double ns = 0;
  {
    mmu::Pmap pmap(ctx, /*is_kernel=*/true);
    auto round = [&] {
      for (std::size_t i = 0; i < kPvMappings; ++i) {
        pmap.Enter(kVaBase + i * sim::kPageSize, page, sim::Prot::kReadWrite, false);
      }
      const std::size_t removed = ctx.PageProtect(page, sim::Prot::kNone);
      SIM_ASSERT(removed == kPvMappings);
    };
    for (std::size_t w = 0; w < kWarmupRounds; ++w) {
      round();
    }
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < kChurnRounds; ++i) {
      round();
    }
    ns = HostNs(t0, Clock::now());
  }
  pm.FreePage(page);
  return ns / static_cast<double>(kChurnRounds * kPvMappings);
}

// Slab churn in the burst-allocate / LIFO-free pattern VM metadata actually
// exhibits (fork allocates a batch of anons, exit frees them). One op is
// one alloc+free pair.
template <typename T, typename NewFn>
double PoolChurnNsPerOp(NewFn make) {
  constexpr std::size_t kBurst = 64;
  sim::PoolResource pool;
  std::vector<T*> live(kBurst);
  auto round = [&] {
    for (std::size_t i = 0; i < kBurst; ++i) {
      live[i] = make(pool);
    }
    for (std::size_t i = kBurst; i > 0; --i) {
      pool.Delete(live[i - 1]);
    }
  };
  for (std::size_t w = 0; w < kWarmupRounds; ++w) {
    round();
  }
  auto t0 = Clock::now();
  for (std::size_t r = 0; r < kChurnRounds; ++r) {
    round();
  }
  return HostNs(t0, Clock::now()) / static_cast<double>(kChurnRounds * kBurst);
}

double MicroAnonChurn() {
  return PoolChurnNsPerOp<uvm::Anon>([](sim::PoolResource& p) { return p.New<uvm::Anon>(); });
}

double MicroObjectChurn() {
  sim::Stats stats;
  return PoolChurnNsPerOp<bsdvm::VmObject>([&](sim::PoolResource& p) {
    return p.New<bsdvm::VmObject>(16, true, p, &stats);
  });
}

// Chunk churn: every emplace lands in its own 2 MB region, so each
// emplace/erase pair takes a 4 KB chunk from the slab layer and returns it.
double MicroPageStoreChurn() {
  constexpr std::size_t kChunks = 32;
  phys::Page dummy;
  sim::PoolResource chunk_pool;
  sim::Stats stats;
  phys::PageStore store(chunk_pool, &stats);
  auto round = [&] {
    for (std::size_t i = 0; i < kChunks; ++i) {
      store.emplace(i * phys::PageStore::kChunkPages, &dummy);
    }
    for (std::size_t i = 0; i < kChunks; ++i) {
      store.erase(i * phys::PageStore::kChunkPages);
    }
  };
  for (std::size_t w = 0; w < kWarmupRounds; ++w) {
    round();
  }
  auto t0 = Clock::now();
  for (std::size_t r = 0; r < kChurnRounds; ++r) {
    round();
  }
  return HostNs(t0, Clock::now()) / static_cast<double>(kChurnRounds * kChunks);
}

// ---------------------------------------------------------------------------
// Whole-simulator workloads
// ---------------------------------------------------------------------------

// Each workload is sized to take at least 8 ms on the reference host on
// both VMs: below that, diff_bench_host.py's 2 ms floor, not its 25%
// tolerance, would bound a slowdown. map_heavy and fault_heavy repeat their
// whole shape kRounds times rather than one phase of it, so the mix of work
// they time is that of one round.
constexpr int kRounds = 3;

// What a workload run leaves that does not depend on the host.
struct Counters {
  std::uint64_t vtime_ns = 0;
  std::uint64_t map_lookup_probes = 0;
  std::uint64_t map_hint_hits = 0;
  std::uint64_t pagestore_lookups = 0;
  std::uint64_t pte_cache_hits = 0;
  std::uint64_t faults = 0;
  bool operator==(const Counters&) const = default;
};

struct WorkloadRun {
  double host_ms = 0;
  Counters counters;
};

WorkloadRun Finish(const World& w, Clock::time_point t0, Clock::time_point t1) {
  const sim::Stats& s = w.machine.stats();
  return {HostNs(t0, t1) * 1e-6,
          {w.machine.clock().now(), s.map_lookup_probes, s.map_hint_hits, s.pagestore_lookups,
           s.pte_cache_hits, s.faults}};
}

// Many small mappings, lookup-dominated: mmap a few hundred scattered anon
// regions, hammer them with single-page touches in a seeded random order
// (every touch is a map lookup plus a fault or pmap hit), unmap them.
WorkloadRun RunMapHeavy(VmKind kind) {
  constexpr std::size_t kRegions = 400;
  constexpr std::size_t kTouches = 20000;
  World w(kind);
  kern::Proc* p = w.kernel->Spawn();
  kern::MapAttrs attrs;
  std::vector<sim::Vaddr> bases(kRegions);
  Rng rng(1234);
  auto t0 = Clock::now();
  for (int r = 0; r < kRounds; ++r) {
    for (std::size_t i = 0; i < kRegions; ++i) {
      sim::Vaddr va = 0x40000000 + i * 8 * sim::kPageSize;  // 4 pages + 4-page hole
      int err = w.kernel->MmapAnon(p, &va, 4 * sim::kPageSize, attrs);
      SIM_ASSERT(err == sim::kOk);
      bases[i] = va;
    }
    for (std::size_t i = 0; i < kTouches; ++i) {
      sim::Vaddr va = bases[rng.Next() % kRegions] + (rng.Next() % 4) * sim::kPageSize;
      int err = w.kernel->TouchWrite(p, va, 1, std::byte{0xaa});
      SIM_ASSERT(err == sim::kOk);
    }
    for (std::size_t i = 0; i < kRegions; ++i) {
      (void)w.kernel->Munmap(p, bases[i], 4 * sim::kPageSize);
    }
  }
  auto t1 = Clock::now();
  return Finish(w, t0, t1);
}

// One large region, fault-dominated: zero-fill every page, read it back
// (soft path through the pmap), a seeded random re-read pass, unmap.
WorkloadRun RunFaultHeavy(VmKind kind) {
  constexpr std::uint64_t kPages = 4096;  // 16 MB, fits in the 32 MB world
  World w(kind);
  kern::Proc* p = w.kernel->Spawn();
  kern::MapAttrs attrs;
  Rng rng(777);
  auto t0 = Clock::now();
  for (int r = 0; r < kRounds; ++r) {
    sim::Vaddr base = 0x40000000;
    int err = w.kernel->MmapAnon(p, &base, kPages * sim::kPageSize, attrs);
    SIM_ASSERT(err == sim::kOk);
    err = w.kernel->TouchWrite(p, base, kPages * sim::kPageSize, std::byte{0x5a});
    SIM_ASSERT(err == sim::kOk);
    err = w.kernel->TouchRead(p, base, kPages * sim::kPageSize);
    SIM_ASSERT(err == sim::kOk);
    for (std::uint64_t i = 0; i < kPages; ++i) {
      sim::Vaddr va = base + (rng.Next() % kPages) * sim::kPageSize;
      err = w.kernel->TouchRead(p, va, 1);
      SIM_ASSERT(err == sim::kOk);
    }
    err = w.kernel->Munmap(p, base, kPages * sim::kPageSize);
    SIM_ASSERT(err == sim::kOk);
  }
  auto t1 = Clock::now();
  return Finish(w, t0, t1);
}

// Soak: repeated exec / fork+COW / exit cycles plus mapping churn, the
// shape long-running integrity soaks take; exercises map mutation, fork
// copying, pmap teardown, and object teardown together.
WorkloadRun RunSoak(VmKind kind) {
  constexpr int kCycles = 80;
  World w(kind);
  auto t0 = Clock::now();
  for (int c = 0; c < kCycles; ++c) {
    kern::Proc* p = w.kernel->Spawn();
    kern::Exec(*w.kernel, p, kern::OdImage());
    kern::MapAttrs attrs;
    sim::Vaddr base = 0x50000000;
    int err = w.kernel->MmapAnon(p, &base, 64 * sim::kPageSize, attrs);
    SIM_ASSERT(err == sim::kOk);
    err = w.kernel->TouchWrite(p, base, 64 * sim::kPageSize, std::byte{0x11});
    SIM_ASSERT(err == sim::kOk);
    kern::Proc* child = w.kernel->Fork(p);
    err = w.kernel->TouchWrite(child, base, 32 * sim::kPageSize, std::byte{0x22});
    SIM_ASSERT(err == sim::kOk);
    w.kernel->Exit(child);
    err = w.kernel->Munmap(p, base, 64 * sim::kPageSize);
    SIM_ASSERT(err == sim::kOk);
    w.kernel->Exit(p);
  }
  auto t1 = Clock::now();
  return Finish(w, t0, t1);
}

void PrintTiming(const std::string& name, const char* unit, double median, double slowdown) {
  std::printf("%-24s %-6s %12.2f %12.2f\n", name.c_str(), unit, median, median / slowdown);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_host.json";
  if (argc == 3 && std::strcmp(argv[1], "--out") == 0) {
    out_path = argv[2];
  } else if (argc != 1) {
    std::fprintf(stderr, "usage: %s [--out FILE]\n", argv[0]);
    return 2;
  }

  struct Micro {
    const char* name;
    double (*run)();
  };
  const Micro micros[] = {
      {"map_lookup_1000", MicroMapLookup},     {"map_mutate_1000", MicroMapMutate},
      {"pagestore_lookup_64k", MicroPageStore}, {"pv_churn", MicroPvChurn},
      {"pool_anon_churn", MicroAnonChurn},     {"pool_object_churn", MicroObjectChurn},
      {"pagestore_churn", MicroPageStoreChurn},
  };
  struct Workload {
    const char* name;
    WorkloadRun (*run)(VmKind);
  };
  const Workload workloads[] = {
      {"map_heavy", RunMapHeavy}, {"fault_heavy", RunFaultHeavy}, {"soak", RunSoak}};
  const VmKind kinds[] = {VmKind::kUvm, VmKind::kBsd};
  const char* vm_names[] = {"uvm", "bsdvm"};
  constexpr std::size_t kWorkloads = std::size(workloads);

  Calibration cal;
  std::vector<std::vector<double>> micro_ns(std::size(micros));
  // Indexed [vm * kWorkloads + workload].
  std::vector<std::vector<double>> wl_ms(std::size(kinds) * kWorkloads);
  std::vector<Counters> wl_c(wl_ms.size());
  for (int r = 0; r < kReps; ++r) {
    for (std::size_t i = 0; i < micro_ns.size(); ++i) {
      cal.Measure();
      micro_ns[i].push_back(micros[i].run());
    }
    for (std::size_t i = 0; i < wl_ms.size(); ++i) {
      cal.Measure();
      const WorkloadRun run = workloads[i % kWorkloads].run(kinds[i / kWorkloads]);
      SIM_ASSERT_MSG(r == 0 || run.counters == wl_c[i],
                     "workload repetitions disagree on virtual results");
      wl_c[i] = run.counters;
      wl_ms[i].push_back(run.host_ms);
    }
  }
  cal.Measure();
  const double slowdown = cal.Slowdown();

  PrintHeader("Host-time performance: hot-path structures and workloads");
  std::printf("(host wall time, median of %d runs; reference = median / host slowdown %.3f)\n\n",
              kReps, slowdown);
  std::printf("%-24s %-6s %12s %12s\n", "item", "unit", "host median", "reference");
  for (std::size_t i = 0; i < micro_ns.size(); ++i) {
    PrintTiming(micros[i].name, "ns/op", Median(micro_ns[i]), slowdown);
  }
  for (std::size_t i = 0; i < wl_ms.size(); ++i) {
    PrintTiming(std::string(vm_names[i / kWorkloads]) + "." + workloads[i % kWorkloads].name, "ms",
                Median(wl_ms[i]), slowdown);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"schema\": 2,\n  \"micro\": {\n");
  for (std::size_t i = 0; i < micro_ns.size(); ++i) {
    std::fprintf(f, "    \"%s\": {\"ns_per_op\": %.1f}%s\n", micros[i].name,
                 Median(micro_ns[i]) / slowdown, i + 1 == micro_ns.size() ? "" : ",");
  }
  std::fprintf(f, "  },\n  \"workloads\": {\n");
  for (std::size_t k = 0; k < std::size(kinds); ++k) {
    std::fprintf(f, "    \"%s\": {\n", vm_names[k]);
    for (std::size_t i = 0; i < kWorkloads; ++i) {
      const Counters& c = wl_c[k * kWorkloads + i];
      std::fprintf(f,
                   "      \"%s\": {\"host_ms\": %.2f, \"vtime_ns\": %llu, "
                   "\"map_lookup_probes\": %llu, \"map_hint_hits\": %llu, "
                   "\"pagestore_lookups\": %llu, \"pte_cache_hits\": %llu, \"faults\": %llu}%s\n",
                   workloads[i].name, Median(wl_ms[k * kWorkloads + i]) / slowdown,
                   static_cast<unsigned long long>(c.vtime_ns),
                   static_cast<unsigned long long>(c.map_lookup_probes),
                   static_cast<unsigned long long>(c.map_hint_hits),
                   static_cast<unsigned long long>(c.pagestore_lookups),
                   static_cast<unsigned long long>(c.pte_cache_hits),
                   static_cast<unsigned long long>(c.faults), i + 1 == kWorkloads ? "" : ",");
    }
    std::fprintf(f, "    }%s\n", k + 1 == std::size(kinds) ? "" : ",");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
