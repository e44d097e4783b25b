// vmbench: the repository benchmark (vmbench/README.md). One process runs
// one workload -- fork, filemap or paging -- on a UVM world and then on a
// BSD VM world, round after round, as a single-threaded closed loop through
// the public kern::Kernel API: one client, each call issued when the
// previous one returned. It measures every layer from outside:
//
//  - host time: each call the benchmark makes into a layer (World
//    construction, vfs::Filesystem::CreateFilePattern, every kern::Kernel
//    call) is timed with the steady clock; the input generator and the data
//    oracle run outside those intervals. Reported host times are divided by
//    the round's host slowdown (see Calibration);
//  - memory: the resident high-water mark each round's World adds;
//  - work: deltas of sim::Stats, sim::CostBreakdown and the pool registry
//    over each round's timed phase;
//  - data: every read is checked against a reference model of the bytes
//    (the file pattern plus everything the workload itself wrote);
//  - determinism: each round builds a fresh World from the same seed, so
//    every round's virtual fingerprint must equal the first round's.
//
// With --traced, every second round also records one span per call (host
// start and end, its job span as parent, the job id, and the call's
// Stats/CostBreakdown delta) and the run reports per-layer metrics instead
// of end-to-end ones, the tracing overhead among them. The last line of
// output is one JSON result object.
//
//   vmbench --workload=fork|filemap|paging --seed=N --seconds=N
//           [--traced] [--spans=FILE]
//   vmbench --selftest
#include <malloc.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "vmbench/metrics.h"

namespace vmbench {
namespace {

using HostClock = std::chrono::steady_clock;
using harness::VmKind;

double Seconds(HostClock::time_point a, HostClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Spans and counters

// Every kind of call the benchmark makes into a layer, then the two parent
// spans. The first kNumKernelCalls are the kernel calls with per-layer
// metrics; spawn is a setup-only kernel call.
enum class SpanKind : std::uint8_t {
  kFork,
  kExit,
  kMmap,
  kMmapAnon,
  kMunmap,
  kMsync,
  kRead,
  kWrite,
  kSpawn,
  kWorld,
  kCreateFile,
  kSetup,
  kJob,
};
constexpr std::size_t kNumKernelCalls = 8;
constexpr std::array<const char*, 13> kSpanNames = {
    "fork",  "exit",  "mmap",  "mmap_anon",   "munmap", "msync", "read",
    "write", "spawn", "world", "create_file", "setup",  "job"};

const char* SpanName(SpanKind k) { return kSpanNames[static_cast<std::size_t>(k)]; }

struct StatField {
  const char* name;
  std::uint64_t sim::Stats::*field;
};

// The counters a span carries as its delta (beside every cost category),
// which are also the ones the per-layer metrics read.
constexpr StatField kStatFields[] = {
    {"faults", &sim::Stats::faults},
    {"fault_neighbor_maps", &sim::Stats::fault_neighbor_maps},
    {"disk_ops", &sim::Stats::disk_ops},
    {"disk_pages_read", &sim::Stats::disk_pages_read},
    {"disk_pages_written", &sim::Stats::disk_pages_written},
    {"swap_ops", &sim::Stats::swap_ops},
    {"swap_pages_in", &sim::Stats::swap_pages_in},
    {"swap_pages_out", &sim::Stats::swap_pages_out},
    {"swap_full_events", &sim::Stats::swap_full_events},
    {"pages_copied", &sim::Stats::pages_copied},
    {"pages_zeroed", &sim::Stats::pages_zeroed},
    {"page_alloc_failures", &sim::Stats::page_alloc_failures},
    {"map_lookup_probes", &sim::Stats::map_lookup_probes},
    {"map_hint_hits", &sim::Stats::map_hint_hits},
    {"pte_cache_hits", &sim::Stats::pte_cache_hits},
    {"lock_acquisitions", &sim::Stats::lock_acquisitions},
    {"anons_allocated", &sim::Stats::anons_allocated},
    {"amaps_allocated", &sim::Stats::amaps_allocated},
    {"shadows_created", &sim::Stats::shadows_created},
    {"collapse_attempts", &sim::Stats::collapse_attempts},
    {"collapses_done", &sim::Stats::collapses_done},
    {"bypasses_done", &sim::Stats::bypasses_done},
    {"object_cache_hits", &sim::Stats::object_cache_hits},
    {"vnode_cache_hits", &sim::Stats::vnode_cache_hits},
    {"vnode_recycles", &sim::Stats::vnode_recycles},
};
constexpr std::size_t kNumStatFields = std::size(kStatFields);
constexpr std::size_t kNumDeltaFields = kNumStatFields + sim::kNumCostCats;

// Counter state of one World at one instant.
struct Snapshot {
  sim::Nanoseconds vns = 0;
  sim::Stats stats;
  sim::CostBreakdown cost;
  sim::PoolStats pools;
};

Snapshot Take(const harness::World& w) {
  return Snapshot{w.machine.clock().now(), w.machine.stats(), w.machine.breakdown(),
                  w.machine.pools().Aggregate()};
}

// Virtual fingerprint: virtual time, every Stats counter and the whole cost
// breakdown. Host timing never feeds it, so tracing cannot move it.
std::uint64_t Fingerprint(const Snapshot& s) {
  static_assert(std::has_unique_object_representations_v<sim::Stats>,
                "Stats is hashed as raw bytes, so it must have no padding");
  Fnv1a h;
  h.AddU64(s.vns);
  h.Add(&s.stats, sizeof(s.stats));
  for (std::size_t i = 0; i < sim::kNumCostCats; ++i) {
    h.AddU64(s.cost.ns[i]);
    h.AddU64(s.cost.charges[i]);
  }
  return h.value();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // the job (or setup) span; 0 for those spans themselves
  std::uint64_t job = 0;
  std::int64_t t0_ns = 0;  // host time since the run started
  std::int64_t t1_ns = 0;
  SpanKind kind = SpanKind::kJob;
  int err = sim::kOk;
  std::array<std::uint64_t, kNumDeltaFields> delta{};
};

void FillDelta(const sim::Stats& s0, const sim::CostBreakdown& c0, const sim::Stats& s1,
               const sim::CostBreakdown& c1, Span* span) {
  for (std::size_t i = 0; i < kNumStatFields; ++i) {
    span->delta[i] = s1.*kStatFields[i].field - s0.*kStatFields[i].field;
  }
  for (std::size_t i = 0; i < sim::kNumCostCats; ++i) {
    span->delta[kNumStatFields + i] = c1.ns[i] - c0.ns[i];
  }
}

// The newest spans of one VM: a bounded ring that drops the oldest span once
// full and counts the drops, the policy of sim::Tracer.
class SpanRing {
 public:
  static constexpr std::size_t kCapacity = 1u << 14;

  void Push(const Span& s) {
    if (buf_.size() < kCapacity) {
      buf_.push_back(s);
    } else {
      buf_[head_] = s;
      head_ = (head_ + 1) % kCapacity;
      ++dropped_;
    }
  }
  std::size_t size() const { return buf_.size(); }
  std::uint64_t dropped() const { return dropped_; }
  const Span& at(std::size_t i) const { return buf_[(head_ + i) % buf_.size()]; }

 private:
  std::vector<Span> buf_;
  std::size_t head_ = 0;
  std::uint64_t dropped_ = 0;
};

// What one round's timed phase did, in virtual terms only: every round of a
// run (same seed, fresh World) must reproduce the first round's.
struct RoundWork {
  std::uint64_t fingerprint = 0;
  Snapshot start;
  Snapshot end;
  std::uint64_t jobs = 0;
  std::uint64_t calls = 0;
  std::array<std::uint64_t, kNumKernelCalls> calls_by_kind{};

  double stat(std::uint64_t sim::Stats::*f) const {
    return static_cast<double>(end.stats.*f - start.stats.*f);
  }
  double vns(std::size_t cat) const { return static_cast<double>(end.cost.ns[cat] - start.cost.ns[cat]); }
  double calls_of(SpanKind k) const {
    return static_cast<double>(calls_by_kind[static_cast<std::size_t>(k)]);
  }
};

// Everything one VM accumulates over a run. Host times are reference-host
// times, and rounds after the warm-up contribute them.
struct VmRun {
  explicit VmRun(VmKind k) : kind(k) {}

  VmKind kind;
  std::size_t rounds = 0;
  RoundWork work;  // the first round's
  bool fingerprint_drift = false;
  std::size_t timed_jobs = 0;       // host-timed jobs a round
  std::uint64_t jobs_measured = 0;  // host-timed jobs of the untraced rounds below
  std::vector<double> job_p50_us;   // one per untraced round
  std::vector<double> job_p99_us;
  std::vector<double> kops_untraced;  // calls per second of host time spent in calls
  // Calls per second of the timed phase's wall time, calibration slices left
  // out, so that the tracer's own work counts: the tracing overhead.
  std::vector<double> phase_kops_untraced;
  std::vector<double> phase_kops_traced;
  std::vector<double> world_s;
  std::vector<double> create_files_s;
  std::vector<double> world_peak_mb;
  std::array<std::vector<double>, kNumKernelCalls> call_ns;  // traced rounds, host-timed jobs
  std::uint64_t attempted = 0;
  std::uint64_t errors = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t verified_reads = 0;
  SpanRing spans;
};

struct RunIds {
  std::uint64_t span = 0;
  std::uint64_t job = 0;
};

// The benchmark's side of every call into the simulator during one round:
// times it, counts it, and in traced rounds records its span.
class Recorder {
 public:
  Recorder(harness::World& w, VmRun& run, bool traced, HostClock::time_point run_t0, RunIds& ids)
      : w_(w), run_(run), traced_(traced), run_t0_(run_t0), ids_(ids) {}

  kern::Kernel& kernel() { return *w_.kernel; }

  // One call into a layer; `fn` returns a sim error code.
  template <typename Fn>
  int Call(SpanKind kind, Fn&& fn) {
    if (traced_) {
      stats0_ = w_.machine.stats();
      cost0_ = w_.machine.breakdown();
    }
    const HostClock::time_point t0 = HostClock::now();
    const int err = fn();
    const HostClock::time_point t1 = HostClock::now();
    const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    const auto k = static_cast<std::size_t>(kind);
    ++run_.attempted;
    if (err != sim::kOk) {
      ++run_.errors;
    }
    if (kind == SpanKind::kCreateFile) {
      create_files_s_ += ns * 1e-9;
    }
    if (timed_) {
      ++work_.calls;
      if (k < kNumKernelCalls) {
        ++work_.calls_by_kind[k];
      }
      if (host_timed_) {
        job_ns_ += ns;
        timed_ns_ += ns;
        ++timed_calls_;
        if (traced_ && k < kNumKernelCalls) {
          call_ns_[k].push_back(ns);
        }
      }
    }
    if (traced_) {
      Span s = MakeSpan(kind, ++ids_.span, t0, t1);
      s.parent = parent_id_;
      s.err = err;
      FillDelta(stats0_, cost0_, w_.machine.stats(), w_.machine.breakdown(), &s);
      run_.spans.Push(s);
    }
    return err;
  }

  // The World span, timed by the caller before this recorder existed.
  void RecordWorld(HostClock::time_point t0, HostClock::time_point t1) {
    ++run_.attempted;
    if (traced_) {
      run_.spans.Push(MakeSpan(SpanKind::kWorld, ++ids_.span, t0, t1));
    }
  }

  // Setup and job spans parent the calls made between Begin and End.
  void BeginParent(SpanKind kind) {
    parent_kind_ = kind;
    parent_id_ = ++ids_.span;
    ++ids_.job;
    job_ns_ = 0;
    if (traced_) {
      pstats0_ = w_.machine.stats();
      pcost0_ = w_.machine.breakdown();
    }
    parent_t0_ = HostClock::now();
  }
  // A job's virtual work always counts; its host time only when `host_timed`.
  void BeginJob(bool host_timed) {
    host_timed_ = host_timed;
    BeginParent(SpanKind::kJob);
  }
  void EndParent() {
    const HostClock::time_point t1 = HostClock::now();
    if (timed_ && parent_kind_ == SpanKind::kJob) {
      ++work_.jobs;
      if (host_timed_) {
        job_us_.push_back(job_ns_ * 1e-3);
      }
    }
    if (traced_) {
      Span s = MakeSpan(parent_kind_, parent_id_, parent_t0_, t1);
      FillDelta(pstats0_, pcost0_, w_.machine.stats(), w_.machine.breakdown(), &s);
      run_.spans.Push(s);
    }
    parent_id_ = 0;
  }

  void StartTimed() {
    timed_ = true;
    timed_ns_ = 0;
    work_ = RoundWork{};
  }
  RoundWork StopTimed() {
    timed_ = false;
    return work_;
  }
  double timed_ns() const { return timed_ns_; }
  std::uint64_t timed_calls() const { return timed_calls_; }
  double create_files_s() const { return create_files_s_; }
  const std::vector<double>& job_us() const { return job_us_; }
  const std::vector<double>& call_ns(std::size_t kind) const { return call_ns_[kind]; }

  void Verify(bool ok) { ++(ok ? run_.verified_reads : run_.mismatches); }

  // --- Kernel calls, one span each ---
  kern::Proc* Spawn() {
    kern::Proc* p = nullptr;
    Call(SpanKind::kSpawn, [&] {
      p = kernel().Spawn();
      return p != nullptr ? sim::kOk : sim::kErrNoMem;
    });
    return p;
  }
  kern::Proc* Fork(kern::Proc* parent) {
    kern::Proc* p = nullptr;
    Call(SpanKind::kFork, [&] {
      p = kernel().Fork(parent);
      return p != nullptr ? sim::kOk : sim::kErrNoMem;
    });
    return p;
  }
  void Exit(kern::Proc* p) {
    Call(SpanKind::kExit, [&] {
      kernel().Exit(p);
      return sim::kOk;
    });
  }
  int MmapAnon(kern::Proc* p, sim::Vaddr* va, std::size_t pages) {
    *va = 0;
    return Call(SpanKind::kMmapAnon, [&] {
      return kernel().MmapAnon(p, va, pages * sim::kPageSize, kern::MapAttrs{});
    });
  }
  int MmapFile(kern::Proc* p, sim::Vaddr* va, const std::string& file, std::size_t pages,
               bool shared) {
    kern::MapAttrs attrs;
    attrs.shared = shared;
    attrs.prot = shared ? sim::Prot::kReadWrite : sim::Prot::kRead;
    *va = 0;
    return Call(SpanKind::kMmap,
                [&] { return kernel().Mmap(p, va, pages * sim::kPageSize, file, 0, attrs); });
  }
  int Munmap(kern::Proc* p, sim::Vaddr va, std::size_t pages) {
    return Call(SpanKind::kMunmap, [&] { return kernel().Munmap(p, va, pages * sim::kPageSize); });
  }
  int Msync(kern::Proc* p, sim::Vaddr va, std::size_t pages) {
    return Call(SpanKind::kMsync, [&] { return kernel().Msync(p, va, pages * sim::kPageSize); });
  }
  int Read(kern::Proc* p, sim::Vaddr va, std::span<std::byte> out) {
    return Call(SpanKind::kRead, [&] { return kernel().ReadMem(p, va, out); });
  }
  int Write(kern::Proc* p, sim::Vaddr va, std::span<const std::byte> in) {
    return Call(SpanKind::kWrite, [&] { return kernel().WriteMem(p, va, in); });
  }
  void CreateFile(const std::string& name, std::size_t pages) {
    Call(SpanKind::kCreateFile, [&] {
      w_.fs.CreateFilePattern(name, pages * sim::kPageSize);
      return sim::kOk;
    });
  }

 private:
  Span MakeSpan(SpanKind kind, std::uint64_t id, HostClock::time_point t0,
                HostClock::time_point t1) const {
    Span s;
    s.id = id;
    s.job = ids_.job;
    s.kind = kind;
    s.t0_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(t0 - run_t0_).count();
    s.t1_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - run_t0_).count();
    return s;
  }

  harness::World& w_;
  VmRun& run_;
  const bool traced_;
  const HostClock::time_point run_t0_;
  RunIds& ids_;
  bool timed_ = false;
  bool host_timed_ = true;
  double timed_ns_ = 0;  // host time in the calls of host-timed jobs
  std::uint64_t timed_calls_ = 0;
  double job_ns_ = 0;
  double create_files_s_ = 0;
  std::vector<double> job_us_;  // host time in calls, per host-timed job
  std::array<std::vector<double>, kNumKernelCalls> call_ns_;  // traced rounds, host-timed jobs
  RoundWork work_;
  SpanKind parent_kind_ = SpanKind::kSetup;
  std::uint64_t parent_id_ = 0;
  HostClock::time_point parent_t0_;
  sim::Stats stats0_;
  sim::CostBreakdown cost0_;
  sim::Stats pstats0_;
  sim::CostBreakdown pcost0_;
};

// ---------------------------------------------------------------------------
// Page contents and the data oracle

constexpr std::size_t kReadBytes = 32;

std::uint64_t Mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Version `version` of page `key` is 512 words drawn from this seed, so a
// stale, lost or misplaced page reads wrong at any offset.
std::uint64_t ContentSeed(std::uint64_t key, std::uint64_t version) {
  return Mix64(key * 0x9e3779b97f4a7c15ull + Mix64(version));
}

// `got` was read at page offset `off`; both are multiples of 8.
bool MatchesContent(std::uint64_t key, std::uint64_t version, std::size_t off,
                    std::span<const std::byte> got) {
  const std::uint64_t seed = ContentSeed(key, version);
  for (std::size_t i = 0; i < got.size(); i += 8) {
    const std::uint64_t want = Mix64(seed + (off + i) / 8);
    if (std::memcmp(got.data() + i, &want, sizeof(want)) != 0) {
      return false;
    }
  }
  return true;
}

// A workload owns the generator (the only source of randomness) and the
// reference model of what each page it reads should hold.
class Workload {
 public:
  explicit Workload(std::uint64_t seed) : rng_(seed) {}
  virtual ~Workload() = default;

  virtual void Setup(Recorder& r) = 0;
  virtual void Job(Recorder& r) = 0;

 protected:
  // Overwrite the page at `va` with a fresh version of page `key`. Returns
  // that version, or 0 when the write failed.
  std::uint64_t WritePage(Recorder& r, kern::Proc* p, sim::Vaddr va, std::uint64_t key) {
    const std::uint64_t version = ++last_version_;
    const std::uint64_t seed = ContentSeed(key, version);
    for (std::size_t i = 0; i < sim::kPageSize / 8; ++i) {
      const std::uint64_t w = Mix64(seed + i);
      std::memcpy(page_.data() + i * 8, &w, sizeof(w));
    }
    return r.Write(p, va, page_) == sim::kOk ? version : 0;
  }

  // Read kReadBytes at a random word-aligned offset of the page at `va` and
  // check them with `expect(offset, bytes)`.
  template <typename Expect>
  void ReadAndCheck(Recorder& r, kern::Proc* p, sim::Vaddr va, Expect&& expect) {
    const std::size_t off = rng_.Below((sim::kPageSize - kReadBytes) / 8 + 1) * 8;
    std::array<std::byte, kReadBytes> got{};
    if (r.Read(p, va + off, got) == sim::kOk) {
      r.Verify(expect(off, std::span<const std::byte>(got)));
    }
  }

  // Check an anonymous page the model says holds version `version` of `key`.
  void ReadAnon(Recorder& r, kern::Proc* p, sim::Vaddr va, std::uint64_t key,
                std::uint64_t version) {
    ReadAndCheck(r, p, va, [&](std::size_t off, std::span<const std::byte> got) {
      return MatchesContent(key, version, off, got);
    });
  }

  sim::Rng rng_;

 private:
  std::uint64_t last_version_ = 0;
  std::array<std::byte, sim::kPageSize> page_{};
};

// fork: a parent with a fully written anonymous heap forks a child per job.
// The child maps and writes a small scratch area of its own, COW-writes a
// random subset of the heap and verifies random reads; the parent dirties a
// few pages while the child lives; the child exits; the parent verifies a
// few reads of its own. RAM holds everything, so nothing pages: fork/COW
// (UVM's amaps and anons against BSD's shadow chains, collapse and bypass)
// is all the work, with no file or swap I/O. The heap is 512 pages: at 2048
// a BSD job is four times the host work, mostly memory traffic, and its
// host time swung with the shared host's slow phases about twice as far as
// the speed index does, too far for the runs to agree.
class ForkWorkload : public Workload {
 public:
  static constexpr std::size_t kHeapPages = 512;
  static constexpr std::size_t kChildWrites = 48;
  static constexpr std::size_t kChildReads = 32;
  static constexpr std::size_t kParentWrites = 8;
  static constexpr std::size_t kParentReads = 4;
  static constexpr std::size_t kScratchPages = 2;
  static constexpr std::size_t kWarmJobs = 4;
  static constexpr std::uint64_t kScratchKey = kHeapPages;  // heap pages are keys 0..kHeapPages-1

  using Workload::Workload;

  void Setup(Recorder& r) override {
    parent_ = r.Spawn();
    if (parent_ == nullptr || r.MmapAnon(parent_, &heap_, kHeapPages) != sim::kOk) {
      parent_ = nullptr;
      return;
    }
    versions_.assign(kHeapPages, 0);
    for (std::size_t pg = 0; pg < kHeapPages; ++pg) {
      versions_[pg] = WritePage(r, parent_, PageVa(pg), pg);
    }
    for (std::size_t i = 0; i < kWarmJobs; ++i) {
      Job(r);
    }
  }

  void Job(Recorder& r) override {
    if (parent_ == nullptr) {
      return;
    }
    kern::Proc* child = r.Fork(parent_);
    if (child == nullptr) {
      return;
    }
    child_versions_ = versions_;
    sim::Vaddr scratch = 0;
    if (r.MmapAnon(child, &scratch, kScratchPages) == sim::kOk) {
      if (const std::uint64_t v = WritePage(r, child, scratch, kScratchKey); v != 0) {
        ReadAnon(r, child, scratch, kScratchKey, v);
      }
    }
    for (std::size_t i = 0; i < kChildWrites; ++i) {
      const std::size_t pg = rng_.Below(kHeapPages);
      if (const std::uint64_t v = WritePage(r, child, PageVa(pg), pg); v != 0) {
        child_versions_[pg] = v;
      }
    }
    for (std::size_t i = 0; i < kChildReads; ++i) {
      const std::size_t pg = rng_.Below(kHeapPages);
      ReadAnon(r, child, PageVa(pg), pg, child_versions_[pg]);
    }
    for (std::size_t i = 0; i < kParentWrites; ++i) {
      const std::size_t pg = rng_.Below(kHeapPages);
      if (const std::uint64_t v = WritePage(r, parent_, PageVa(pg), pg); v != 0) {
        versions_[pg] = v;
      }
    }
    r.Exit(child);
    for (std::size_t i = 0; i < kParentReads; ++i) {
      const std::size_t pg = rng_.Below(kHeapPages);
      ReadAnon(r, parent_, PageVa(pg), pg, versions_[pg]);
    }
  }

 private:
  sim::Vaddr PageVa(std::size_t pg) const { return heap_ + pg * sim::kPageSize; }

  kern::Proc* parent_ = nullptr;
  sim::Vaddr heap_ = 0;
  std::vector<std::uint64_t> versions_;
  std::vector<std::uint64_t> child_versions_;
};

// filemap: one process rotates over a working set of files larger than BSD
// VM's 100-entry object cache but smaller than RAM and the vnode table.
// Seven jobs in eight map the next file private read-only, read and verify
// a random prefix of its pages, and unmap it; the eighth maps it shared,
// rewrites one page, verifies it, msyncs and unmaps. This is the vnode
// cache, the pagers, BSD's object cache, pmap enter/remove and map churn,
// with no fork and no swap.
class FilemapWorkload : public Workload {
 public:
  static constexpr std::size_t kFiles = 200;
  static constexpr std::size_t kFilePages = 16;

  explicit FilemapWorkload(std::uint64_t seed) : Workload(seed) {
    for (std::size_t f = 0; f < kFiles; ++f) {
      names_.push_back("/data/f" + std::to_string(f));
    }
    versions_.assign(kFiles * kFilePages, 0);
  }

  void Setup(Recorder& r) override {
    for (const std::string& name : names_) {
      r.CreateFile(name, kFilePages);
    }
    proc_ = r.Spawn();
    // Read every page once so the caches hold what they can before timing.
    for (std::size_t f = 0; f < kFiles; ++f) {
      ReadPrefix(r, f, kFilePages);
    }
  }

  void Job(Recorder& r) override {
    const std::size_t f = next_file_;
    next_file_ = (next_file_ + 1) % kFiles;
    if (rng_.Below(8) == 0) {
      RewritePage(r, f);
    } else {
      ReadPrefix(r, f, rng_.Range(1, kFilePages));
    }
  }

 private:
  static std::uint64_t Key(std::size_t f, std::size_t pg) { return f * kFilePages + pg; }

  void ReadPrefix(Recorder& r, std::size_t f, std::size_t pages) {
    sim::Vaddr va = 0;
    if (proc_ == nullptr || r.MmapFile(proc_, &va, names_[f], kFilePages, false) != sim::kOk) {
      return;
    }
    for (std::size_t pg = 0; pg < pages; ++pg) {
      ReadFilePage(r, va, f, pg);
    }
    r.Munmap(proc_, va, kFilePages);
  }

  void RewritePage(Recorder& r, std::size_t f) {
    sim::Vaddr va = 0;
    if (proc_ == nullptr || r.MmapFile(proc_, &va, names_[f], kFilePages, true) != sim::kOk) {
      return;
    }
    const std::size_t pg = rng_.Below(kFilePages);
    if (const std::uint64_t v = WritePage(r, proc_, va + pg * sim::kPageSize, Key(f, pg)); v != 0) {
      versions_[Key(f, pg)] = v;
    }
    ReadFilePage(r, va, f, pg);
    r.Msync(proc_, va, kFilePages);
    r.Munmap(proc_, va, kFilePages);
  }

  // Version 0 is the pattern the file was created with.
  void ReadFilePage(Recorder& r, sim::Vaddr va, std::size_t f, std::size_t pg) {
    const std::uint64_t key = Key(f, pg);
    const std::uint64_t version = versions_[key];
    ReadAndCheck(r, proc_, va + pg * sim::kPageSize,
                 [&](std::size_t off, std::span<const std::byte> got) {
                   if (version != 0) {
                     return MatchesContent(key, version, off, got);
                   }
                   for (std::size_t i = 0; i < got.size(); ++i) {
                     if (got[i] != vfs::Filesystem::PatternByte(names_[f],
                                                                pg * sim::kPageSize + off + i)) {
                       return false;
                     }
                   }
                   return true;
                 });
  }

  std::vector<std::string> names_;
  std::vector<std::uint64_t> versions_;
  kern::Proc* proc_ = nullptr;
  std::size_t next_file_ = 0;
};

// paging: one process write-fills an anonymous region twice the size of
// RAM, then runs a random read/write mix (one write in three, every read
// verified). Setup runs the mix long enough for swap-slot allocation to
// reach its fragmented steady state; each timed job is a fixed batch of
// accesses. Dirty re-pageout sits beside clean reclaim; no fork, no files.
// The machine is a quarter of the paper's (8 MB RAM, 32 MB swap): UVM's
// per-access host cost settles after about 64k accesses there, four times
// sooner than at full size, which keeps a round affordable.
class PagingWorkload : public Workload {
 public:
  static constexpr std::size_t kRamPages = 2048;
  static constexpr std::size_t kSwapSlots = 8192;
  static constexpr std::size_t kRegionPages = 2 * kRamPages;
  static constexpr std::size_t kBatch = 64;
  static constexpr std::size_t kWarmAccesses = 1280 * kBatch;

  PagingWorkload(std::uint64_t seed, std::size_t warm_accesses)
      : Workload(seed), warm_accesses_(warm_accesses) {}

  void Setup(Recorder& r) override {
    proc_ = r.Spawn();
    if (proc_ == nullptr || r.MmapAnon(proc_, &region_, kRegionPages) != sim::kOk) {
      proc_ = nullptr;
      return;
    }
    versions_.assign(kRegionPages, 0);
    for (std::size_t pg = 0; pg < kRegionPages; ++pg) {
      versions_[pg] = WritePage(r, proc_, PageVa(pg), pg);
    }
    for (std::size_t i = 0; i < warm_accesses_; ++i) {
      Access(r);
    }
  }

  void Job(Recorder& r) override {
    for (std::size_t i = 0; proc_ != nullptr && i < kBatch; ++i) {
      Access(r);
    }
  }

 private:
  sim::Vaddr PageVa(std::size_t pg) const { return region_ + pg * sim::kPageSize; }

  void Access(Recorder& r) {
    const std::size_t pg = rng_.Below(kRegionPages);
    if (rng_.Below(3) == 0) {
      if (const std::uint64_t v = WritePage(r, proc_, PageVa(pg), pg); v != 0) {
        versions_[pg] = v;
      }
    } else {
      ReadAnon(r, proc_, PageVa(pg), pg, versions_[pg]);
    }
  }

  const std::size_t warm_accesses_;
  kern::Proc* proc_ = nullptr;
  sim::Vaddr region_ = 0;
  std::vector<std::uint64_t> versions_;
};

// ---------------------------------------------------------------------------
// Rounds and runs

// Every round has at least 1000 host-timed jobs, so each round's p99 has
// ten jobs beyond it, and takes one to three seconds of host time on a
// 4-core x86 host. fork runs on 64 MB, like Figure 6, because BSD VM's
// shadow chains hold enough dead pages to page on the 32 MB machine.
struct WorkloadSpec {
  const char* name;
  std::uint64_t timed_jobs;  // a round also runs one untimed job per calibration slice
  std::size_t ram_pages;
  std::size_t swap_slots;
};
constexpr WorkloadSpec kWorkloads[] = {
    {"fork", 1000, 16384, 32768},
    {"filemap", 60000, 8192, 32768},
    {"paging", 1000, PagingWorkload::kRamPages, PagingWorkload::kSwapSlots},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

// The workload's generator is seeded from the run seed and its own name, so
// both VMs and every round see the same calls.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed,
                                       std::size_t paging_warm_accesses) {
  Fnv1a h;
  h.Add(name.data(), name.size());
  h.AddU64(seed);
  if (name == "fork") {
    return std::make_unique<ForkWorkload>(h.value());
  }
  if (name == "filemap") {
    return std::make_unique<FilemapWorkload>(h.value());
  }
  return std::make_unique<PagingWorkload>(h.value(), paging_warm_accesses);
}

struct RoundPlan {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  std::uint64_t jobs = 0;
  std::size_t paging_warm_accesses = PagingWorkload::kWarmAccesses;
};

// The host speed index. The hosts this benchmark runs on are shared, and
// their speed drifts by tens of percent over minutes, for a plain compute
// loop as much as for the simulator. So every round also times two fixed
// calibration loops -- benchmark code doing page copies and hash-table
// probes like the simulator's own host work, one inside the core's caches
// and one far outside them -- once before setup and kCalibrationSlices times
// spread through the timed jobs (outside every call interval; the job after
// each slice is left out of the host times). A loop's
// slowdown is its median time over its reference time; the round's slowdown
// is the geometric mean of the two, and every host time the benchmark
// reports is the measured time divided by it: time on a reference host. A
// faster simulator moves the reported figures; a slower host mostly does
// not. Round lines print the raw times and the slowdown. Neither loop alone
// tracked the simulator through the host's slow phases as well as both.
class CalibrationLoop {
 public:
  CalibrationLoop(std::size_t pages, std::uint64_t keys, std::uint64_t steps, std::uint64_t probes)
      : pages_(pages * sim::kPageSize), npages_(pages), keys_(keys), steps_(steps), probes_(probes) {
    for (std::uint64_t i = 0; i < keys_; ++i) {
      table_.emplace(Mix64(i), i);
    }
  }

  // Host nanoseconds one pass takes now.
  double Measure() {
    const HostClock::time_point t0 = HostClock::now();
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
    return std::chrono::duration<double, std::nano>(HostClock::now() - t0).count();
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
  static constexpr std::size_t kCalibrationSlices = 16;

  void Measure() {
    small_ns_.push_back(small_.Measure());
    large_ns_.push_back(large_.Measure());
  }
  // Host slowdown against the reference over the Measure() calls since the
  // last Reset(); >1 means the host runs slower than the reference.
  double Slowdown() const {
    return std::sqrt(Median(small_ns_) / kSmallReferenceNs * Median(large_ns_) / kLargeReferenceNs);
  }
  void Reset() {
    small_ns_.clear();
    large_ns_.clear();
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

// Resident memory of this process from /proc/self/status, in MB: "VmRSS:"
// now, or "VmHWM:", the high-water mark since the last ResetPeakRss().
double StatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  const std::size_t n = std::strlen(key);
  for (std::string line; std::getline(in, line);) {
    if (line.compare(0, n, key) == 0) {
      return std::strtod(line.c_str() + n, nullptr) / 1024.0;
    }
  }
  std::fprintf(stderr, "vmbench: no %s line in /proc/self/status\n", key);
  std::exit(1);
}

// Starts measuring one World's memory: hands the previous World's freed
// heap back to the kernel, resets the resident high-water mark to the
// resident set now, and returns that. The benchmark's own buffers (the
// calibration loops' above all) are resident throughout, so the next
// "VmHWM:" less this is what the World added.
double ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  if (!(clear << "5" << std::flush)) {
    std::fprintf(stderr, "vmbench: cannot reset the peak RSS through /proc/self/clear_refs\n");
    std::exit(1);
  }
  return StatusMb("VmRSS:");
}

// A run's first round warms the host process (allocator, caches, clock
// frequency): its virtual fingerprint counts, its host timings do not.
enum class RoundKind { kWarmup, kUntraced, kTraced };

// One round on one VM: build a World, set the workload up, run the timed
// jobs, and check the virtual fingerprint against the run's first round.
// Returns the round's setup time in reference seconds.
double RunRound(const RoundPlan& plan, VmRun& run, RoundKind kind, Calibration& cal,
                HostClock::time_point run_t0, RunIds& ids) {
  const bool traced = kind == RoundKind::kTraced;
  cal.Reset();
  cal.Measure();
  harness::WorldConfig config;
  config.ram_pages = plan.spec->ram_pages;
  config.swap_slots = plan.spec->swap_slots;
  const double rss0_mb = ResetPeakRss();
  const HostClock::time_point s0 = HostClock::now();
  auto world = std::make_unique<harness::World>(run.kind, config);
  const HostClock::time_point s1 = HostClock::now();
  Recorder r(*world, run, traced, run_t0, ids);
  r.RecordWorld(s0, s1);
  std::unique_ptr<Workload> wl = MakeWorkload(plan.spec->name, plan.seed, plan.paging_warm_accesses);
  r.BeginParent(SpanKind::kSetup);
  wl->Setup(r);
  r.EndParent();
  const double setup_s = Seconds(s0, HostClock::now());

  const Snapshot start = Take(*world);
  r.StartTimed();
  const HostClock::time_point p0 = HostClock::now();
  double calibration_s = 0;
  std::size_t slices = 0;
  for (std::uint64_t j = 0; j < plan.jobs; ++j) {
    // The slices are spread evenly over the jobs. The job after a slice runs
    // on caches the slice evicted, so its host time is left out; its virtual
    // work counts.
    bool after_slice = false;
    while (slices < Calibration::kCalibrationSlices &&
           slices * plan.jobs / Calibration::kCalibrationSlices == j) {
      const HostClock::time_point c0 = HostClock::now();
      cal.Measure();
      calibration_s += Seconds(c0, HostClock::now());
      ++slices;
      after_slice = true;
    }
    r.BeginJob(!after_slice);
    wl->Job(r);
    r.EndParent();
  }
  const double phase_s = Seconds(p0, HostClock::now()) - calibration_s;
  RoundWork work = r.StopTimed();
  work.start = start;
  work.end = Take(*world);
  work.fingerprint = Fingerprint(work.end);
  const double world_peak_mb = StatusMb("VmHWM:") - rss0_mb;

  const double slowdown = cal.Slowdown();
  const double raw_kops =
      r.timed_ns() > 0 ? static_cast<double>(r.timed_calls()) / r.timed_ns() * 1e6 : 0;
  const double raw_phase_kops =
      phase_s > 0 ? static_cast<double>(work.calls) / phase_s * 1e-3 : 0;
  std::vector<double> jobs = r.job_us();
  std::sort(jobs.begin(), jobs.end());
  run.timed_jobs = jobs.size();
  if (kind != RoundKind::kWarmup) {
    (traced ? run.phase_kops_traced : run.phase_kops_untraced).push_back(raw_phase_kops * slowdown);
    if (!traced) {
      run.kops_untraced.push_back(raw_kops * slowdown);
      run.jobs_measured += jobs.size();
      run.job_p50_us.push_back(Percentile(jobs, kP50) / slowdown);
      run.job_p99_us.push_back(Percentile(jobs, kP99) / slowdown);
    }
    for (std::size_t k = 0; k < kNumKernelCalls; ++k) {
      for (double ns : r.call_ns(k)) {
        run.call_ns[k].push_back(ns / slowdown);
      }
    }
    run.world_s.push_back(Seconds(s0, s1) / slowdown);
    run.create_files_s.push_back(r.create_files_s() / slowdown);
    run.world_peak_mb.push_back(world_peak_mb);
  }
  if (run.rounds++ == 0) {
    run.work = work;
  } else if (work.fingerprint != run.work.fingerprint) {
    run.fingerprint_drift = true;
  }
  static constexpr const char* kKindNames[] = {"warm-up ", "untraced", "traced  "};
  std::printf("round %zu %-5s %s raw: setup %.3f s, %llu jobs (%zu host-timed), %llu calls in "
              "%.3f s (%.2f kcalls/s; %.2f over the phase), job p50 %.2f us p99 %.2f us; World "
              "peak %.1f MB; slowdown %.3f; fingerprint %016llx\n",
              run.rounds - 1, harness::VmKindName(run.kind), kKindNames[static_cast<int>(kind)],
              setup_s, static_cast<unsigned long long>(work.jobs), jobs.size(),
              static_cast<unsigned long long>(r.timed_calls()), r.timed_ns() * 1e-9, raw_kops,
              raw_phase_kops, Percentile(jobs, kP50), Percentile(jobs, kP99), world_peak_mb,
              slowdown, static_cast<unsigned long long>(work.fingerprint));
  return setup_s / slowdown;
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
  std::string note;  // base, sample count: printed, never part of the value
};

std::string Count(std::size_t n) { return std::to_string(n); }

void AddRatio(std::vector<Metric>* m, std::string name, const char* unit, const Ratio& r) {
  m->push_back({std::move(name), r.value(), unit, FormatRatio(r)});
}

std::vector<Metric> EndToEndMetrics(const VmRun& uvm, const VmRun& bsd,
                                    const std::vector<double>& round_setup_s) {
  std::vector<Metric> m;
  for (const VmRun* run : {&uvm, &bsd}) {
    const std::string vm = harness::VmKindName(run->kind);
    const std::string rounds = "median over " + Count(run->job_p50_us.size()) + " rounds";
    const std::size_t per_round = run->timed_jobs;
    const std::uint32_t tail = HighestSupportedPercentile(per_round);
    m.push_back({"kops_per_s." + vm, Median(run->kops_untraced), "kcalls/s", rounds});
    m.push_back({"job_p50_us." + vm, Median(run->job_p50_us), "us",
                 rounds + " of each round's p50; " + Count(run->jobs_measured) + " jobs"});
    m.push_back({"job_p99_us." + vm, Median(run->job_p99_us), "us",
                 rounds + " of each round's p99; " + Count(per_round) + " host-timed jobs a round, " +
                     Count(SamplesBeyond(per_round, kP99)) +
                     " beyond p99; highest percentile a round supports: " +
                     (tail == 0 ? std::string("none") : PercentileName(tail))});
    AddRatio(&m, "vus_per_op." + vm, "vus/call",
             Ratio{static_cast<double>(run->work.end.vns - run->work.start.vns) * 1e-3,
                   static_cast<double>(run->work.calls)});
  }
  m.push_back({"setup_s", Median(round_setup_s), "s",
               "median over " + Count(round_setup_s.size()) + " rounds of both VMs' setup"});
  m.push_back({"peak_rss_mb", std::max(Median(uvm.world_peak_mb), Median(bsd.world_peak_mb)), "MB",
               "resident high-water mark a World adds over its round; the larger VM's median over "
               "rounds"});
  return m;
}

std::vector<Metric> PerLayerMetrics(const VmRun& uvm, const VmRun& bsd) {
  std::vector<Metric> m;
  for (const VmRun* run : {&uvm, &bsd}) {
    const std::string vm = "." + std::string(harness::VmKindName(run->kind));
    const RoundWork& w = run->work;
    for (std::size_t k = 0; k < kNumKernelCalls; ++k) {
      const std::string call = std::string("kern.") + kSpanNames[k];
      std::vector<double> ns = run->call_ns[k];
      std::sort(ns.begin(), ns.end());
      const std::string n = "n=" + Count(ns.size());
      m.push_back({call + ".calls" + vm, static_cast<double>(w.calls_by_kind[k]), "count",
                   "per round"});
      m.push_back({call + ".host_us_p50" + vm, Percentile(ns, kP50) * 1e-3, "us", n});
      m.push_back({call + ".host_us_p99" + vm, Percentile(ns, kP99) * 1e-3, "us",
                   n + ", " + Count(SamplesBeyond(ns.size(), kP99)) + " beyond"});
    }
    m.push_back({"kern.errors" + vm, static_cast<double>(run->errors), "count", "whole run"});
  }
  auto stat = [](const VmRun& run, std::uint64_t sim::Stats::*f) { return run.work.stat(f); };
  m.push_back({"core.anons_allocated", stat(uvm, &sim::Stats::anons_allocated), "count", "per round"});
  m.push_back({"core.amaps_allocated", stat(uvm, &sim::Stats::amaps_allocated), "count", "per round"});
  m.push_back({"core.neighbor_maps", stat(uvm, &sim::Stats::fault_neighbor_maps), "count", "per round"});
  m.push_back({"bsdvm.shadows_created", stat(bsd, &sim::Stats::shadows_created), "count", "per round"});
  m.push_back({"bsdvm.collapse_attempts", stat(bsd, &sim::Stats::collapse_attempts), "count", "per round"});
  AddRatio(&m, "bsdvm.collapse_ratio", "ratio",
           Ratio{stat(bsd, &sim::Stats::collapses_done), stat(bsd, &sim::Stats::collapse_attempts)});
  m.push_back({"bsdvm.bypasses_done", stat(bsd, &sim::Stats::bypasses_done), "count", "per round"});
  AddRatio(&m, "bsdvm.object_cache_hits_per_mmap", "1/call",
           Ratio{stat(bsd, &sim::Stats::object_cache_hits), bsd.work.calls_of(SpanKind::kMmap)});
  for (const VmRun* run : {&uvm, &bsd}) {
    const std::string vm = "." + std::string(harness::VmKindName(run->kind));
    const RoundWork& w = run->work;
    const double calls = static_cast<double>(w.calls);
    const double mmaps = w.calls_of(SpanKind::kMmap);
    AddRatio(&m, "mmu.pte_cache_hits_per_fault" + vm, "1/fault",
             Ratio{w.stat(&sim::Stats::pte_cache_hits), w.stat(&sim::Stats::faults)});
    m.push_back({"phys.pages_copied" + vm, w.stat(&sim::Stats::pages_copied), "count", "per round"});
    m.push_back({"phys.pages_zeroed" + vm, w.stat(&sim::Stats::pages_zeroed), "count", "per round"});
    m.push_back({"phys.alloc_failures" + vm, w.stat(&sim::Stats::page_alloc_failures), "count",
                 "per round"});
    m.push_back({"harness.world_build_s" + vm, Median(run->world_s), "s",
                 "median over " + Count(run->world_s.size()) + " rounds"});
    m.push_back({"vfs.disk_ops" + vm, w.stat(&sim::Stats::disk_ops), "count", "per round"});
    AddRatio(&m, "vfs.pages_per_disk_op" + vm, "pages/op",
             Ratio{w.stat(&sim::Stats::disk_pages_read) + w.stat(&sim::Stats::disk_pages_written),
                   w.stat(&sim::Stats::disk_ops)});
    AddRatio(&m, "vfs.vnode_cache_hits_per_mmap" + vm, "1/call",
             Ratio{w.stat(&sim::Stats::vnode_cache_hits), mmaps});
    m.push_back({"vfs.vnode_recycles" + vm, w.stat(&sim::Stats::vnode_recycles), "count", "per round"});
    m.push_back({"vfs.create_files_s" + vm, Median(run->create_files_s), "s",
                 "median over " + Count(run->create_files_s.size()) + " rounds"});
    m.push_back({"swap.ops" + vm, w.stat(&sim::Stats::swap_ops), "count", "per round"});
    m.push_back({"swap.pages_in" + vm, w.stat(&sim::Stats::swap_pages_in), "count", "per round"});
    AddRatio(&m, "swap.pages_out_per_op" + vm, "pages/op",
             Ratio{w.stat(&sim::Stats::swap_pages_out), w.stat(&sim::Stats::swap_ops)});
    m.push_back({"swap.full_events" + vm, w.stat(&sim::Stats::swap_full_events), "count", "per round"});
    AddRatio(&m, "sim.map_probes_per_op" + vm, "1/call",
             Ratio{w.stat(&sim::Stats::map_lookup_probes), calls});
    AddRatio(&m, "sim.map_hint_hits_per_op" + vm, "1/call",
             Ratio{w.stat(&sim::Stats::map_hint_hits), calls});
    AddRatio(&m, "sim.lock_acquisitions_per_op" + vm, "1/call",
             Ratio{w.stat(&sim::Stats::lock_acquisitions), calls});
    m.push_back({"sim.pool_allocs" + vm,
                 static_cast<double>(w.end.pools.allocs) - static_cast<double>(w.start.pools.allocs),
                 "count", "per round"});
    m.push_back({"sim.pool_refills" + vm,
                 static_cast<double>(w.end.pools.slab_refills) -
                     static_cast<double>(w.start.pools.slab_refills),
                 "count", "per round"});
    m.push_back({"sim.pool_high_water" + vm, static_cast<double>(w.end.pools.high_water), "count",
                 "end of timed phase"});
    for (sim::CostCat c : {sim::CostCat::kFault, sim::CostCat::kPagein, sim::CostCat::kPageout,
                           sim::CostCat::kMap, sim::CostCat::kPmap, sim::CostCat::kCopy,
                           sim::CostCat::kLock, sim::CostCat::kFork, sim::CostCat::kAlloc,
                           sim::CostCat::kIo}) {
      AddRatio(&m, std::string("vtime.") + sim::CostCatName(c) + "_ns_per_op" + vm, "vns/call",
               Ratio{w.vns(static_cast<std::size_t>(c)), calls});
    }
    const double untraced = Median(run->phase_kops_untraced);
    AddRatio(&m, "trace.overhead_frac" + vm, "ratio",
             Ratio{untraced - Median(run->phase_kops_traced), untraced});
  }
  return m;
}

// Names are valid, unique, and every value is finite.
bool MetricsWellFormed(const std::vector<Metric>& metrics) {
  std::set<std::string> seen;
  for (const Metric& m : metrics) {
    if (!IsValidMetricName(m.name) || !seen.insert(m.name).second || !std::isfinite(m.value)) {
      std::fprintf(stderr, "vmbench: malformed metric '%s'\n", m.name.c_str());
      return false;
    }
  }
  return true;
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

bool WriteSpans(const std::string& path, const std::string& workload, std::uint64_t seed,
                const VmRun& uvm, const VmRun& bsd) {
  std::ofstream os(path, std::ios::out | std::ios::trunc);
  if (!os) {
    std::fprintf(stderr, "vmbench: cannot write spans to '%s'\n", path.c_str());
    return false;
  }
  os << "{\"workload\": \"" << workload << "\", \"seed\": " << seed << ", \"capacity\": "
     << SpanRing::kCapacity << ", \"dropped\": {\"uvm\": " << uvm.spans.dropped()
     << ", \"bsdvm\": " << bsd.spans.dropped() << "}}\n";
  for (const VmRun* run : {&uvm, &bsd}) {
    for (std::size_t i = 0; i < run->spans.size(); ++i) {
      const Span& s = run->spans.at(i);
      os << "{\"vm\": \"" << harness::VmKindName(run->kind) << "\", \"id\": " << s.id
         << ", \"parent\": " << s.parent << ", \"job\": " << s.job << ", \"name\": \""
         << SpanName(s.kind) << "\", \"t0_ns\": " << s.t0_ns << ", \"t1_ns\": " << s.t1_ns
         << ", \"err\": " << s.err << ", \"delta\": {";
      bool first = true;
      for (std::size_t f = 0; f < kNumDeltaFields; ++f) {
        if (s.delta[f] == 0) {
          continue;
        }
        os << (first ? "" : ", ") << '"';
        if (f < kNumStatFields) {
          os << kStatFields[f].name;
        } else {
          os << "vns." << sim::CostCatName(static_cast<sim::CostCat>(f - kNumStatFields));
        }
        os << "\": " << s.delta[f];
        first = false;
      }
      os << "}}\n";
    }
  }
  return static_cast<bool>(os);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  bool traced = false;
  std::string spans_path;
};

int Run(const Options& opt) {
  RoundPlan plan;
  plan.spec = FindWorkload(opt.workload);
  plan.seed = opt.seed;
  plan.jobs = plan.spec->timed_jobs + Calibration::kCalibrationSlices;

  const HostClock::time_point t0 = HostClock::now();
  auto uvm = std::make_unique<VmRun>(VmKind::kUvm);
  auto bsd = std::make_unique<VmRun>(VmKind::kBsd);
  RunIds ids;
  Calibration cal;
  std::vector<double> round_setup_s;
  // After the warm-up round, untraced runs need three setups for a median;
  // traced runs alternate traced and untraced rounds, two of each. Further
  // rounds run while the next one still fits in --seconds.
  const std::size_t min_rounds = opt.traced ? 5 : 4;
  double longest_round = 0;
  for (std::size_t round = 0;; ++round) {
    const HostClock::time_point r0 = HostClock::now();
    if (round >= min_rounds && Seconds(t0, r0) + longest_round > static_cast<double>(opt.seconds)) {
      break;
    }
    const RoundKind kind = round == 0                     ? RoundKind::kWarmup
                           : opt.traced && round % 2 == 1 ? RoundKind::kTraced
                                                          : RoundKind::kUntraced;
    const double setup_uvm = RunRound(plan, *uvm, kind, cal, t0, ids);
    const double setup_bsd = RunRound(plan, *bsd, kind, cal, t0, ids);
    if (kind != RoundKind::kWarmup) {
      round_setup_s.push_back(setup_uvm + setup_bsd);
    }
    longest_round = std::max(longest_round, Seconds(r0, HostClock::now()));
  }

  const std::vector<Metric> metrics = opt.traced
                                          ? PerLayerMetrics(*uvm, *bsd)
                                          : EndToEndMetrics(*uvm, *bsd, round_setup_s);
  bool correct = MetricsWellFormed(metrics);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::printf("\nvmbench %s seed=%llu seconds=%llu %s: %zu rounds in %.2f s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(opt.seconds), opt.traced ? "traced" : "untraced",
              round_setup_s.size(), Seconds(t0, HostClock::now()));
  for (const VmRun* run : {uvm.get(), bsd.get()}) {
    attempted += run->attempted;
    failed += run->errors + run->mismatches;
    const bool ok = run->errors == 0 && run->mismatches == 0 && run->verified_reads > 0 &&
                    !run->fingerprint_drift;
    correct = correct && ok;
    std::printf("%-5s fingerprint %016llx%s; verified reads %llu, mismatches %llu, errors %llu; "
                "error_frac %s\n",
                harness::VmKindName(run->kind),
                static_cast<unsigned long long>(run->work.fingerprint),
                run->fingerprint_drift ? " (DRIFTED between rounds)" : " (every round)",
                static_cast<unsigned long long>(run->verified_reads),
                static_cast<unsigned long long>(run->mismatches),
                static_cast<unsigned long long>(run->errors),
                FormatRatio(Ratio{static_cast<double>(run->errors + run->mismatches),
                                  static_cast<double>(run->attempted)})
                    .c_str());
  }
  if (opt.traced) {
    std::printf("tracing overhead: kcalls per second of timed phase, untraced %.3f / traced %.3f "
                "(uvm), %.3f / %.3f (bsdvm)\n",
                Median(uvm->phase_kops_untraced), Median(uvm->phase_kops_traced),
                Median(bsd->phase_kops_untraced), Median(bsd->phase_kops_traced));
    if (!opt.spans_path.empty()) {
      correct = WriteSpans(opt.spans_path, opt.workload, opt.seed, *uvm, *bsd) && correct;
    }
  }
  std::printf("host times below are reference-host times: each round's raw times divided by its "
              "slowdown\n");
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6f %-9s %s\n", m.name.c_str(), m.value, m.unit, m.note.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

// ---------------------------------------------------------------------------
// Self-tests of the benchmark's own arithmetic and determinism

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };

  // Percentiles: nearest rank, and the highest with >= 10 samples beyond.
  std::vector<double> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<double>(i + 1);
  }
  expect(Percentile(v, kP50) == 500, "p50 of 1..1000 is 500");
  expect(Percentile(v, kP99) == 990, "p99 of 1..1000 is 990");
  expect(SamplesBeyond(1000, kP99) == 10, "1000 samples leave 10 beyond p99");
  expect(SamplesBeyond(999, kP99) == 9, "999 samples leave 9 beyond p99");
  expect(HighestSupportedPercentile(19) == 0, "19 samples support no percentile");
  expect(HighestSupportedPercentile(20) == 5000, "20 samples support p50");
  expect(HighestSupportedPercentile(999) == 9000, "999 samples support p90");
  expect(HighestSupportedPercentile(1000) == 9900, "1000 samples support p99");
  expect(HighestSupportedPercentile(10000) == 9990, "10000 samples support p99.9");
  expect(HighestSupportedPercentile(100000) == 9999, "100000 samples support p99.99");
  expect(PercentileName(9900) == "p99" && PercentileName(9990) == "p99.9" &&
             PercentileName(9999) == "p99.99",
         "percentile names");

  // Ratios carry their base.
  expect(FormatRatio(Ratio{1, 4}) == "0.25 (1 / 4)", "ratio printed with its base");
  expect(Ratio{3, 0}.value() == 0 && FormatRatio(Ratio{0, 0}) == "0 (0 / 0)", "empty base reads 0");

  // Metric names.
  expect(IsValidMetricName("kops_per_s.uvm") && IsValidMetricName("9lives") &&
             IsValidMetricName("a-b_c.d"),
         "valid names accepted");
  expect(!IsValidMetricName("") && !IsValidMetricName(".uvm") && !IsValidMetricName("a b") &&
             !IsValidMetricName("a/b") && !IsValidMetricName(std::string(65, 'a')),
         "invalid names rejected");
  const VmRun empty_uvm(VmKind::kUvm);
  const VmRun empty_bsd(VmKind::kBsd);
  const std::vector<Metric> e2e = EndToEndMetrics(empty_uvm, empty_bsd, {});
  const std::vector<Metric> layers = PerLayerMetrics(empty_uvm, empty_bsd);
  expect(e2e.size() == 10 && MetricsWellFormed(e2e), "10 well-formed end-to-end metrics");
  expect(layers.size() <= 128 && MetricsWellFormed(layers), "<= 128 well-formed per-layer metrics");

  // Fingerprint stability: a short round of each workload reproduces its
  // fingerprint traced and untraced, and another seed changes it.
  for (const WorkloadSpec& spec : kWorkloads) {
    for (VmKind kind : {VmKind::kUvm, VmKind::kBsd}) {
      RoundPlan plan;
      plan.spec = &spec;
      plan.jobs = 8;
      plan.paging_warm_accesses = 20000;
      RunIds ids;
      Calibration cal;
      auto run = std::make_unique<VmRun>(kind);
      const HostClock::time_point t0 = HostClock::now();
      RunRound(plan, *run, RoundKind::kUntraced, cal, t0, ids);
      RunRound(plan, *run, RoundKind::kTraced, cal, t0, ids);
      auto other = std::make_unique<VmRun>(kind);
      plan.seed = 2;
      RunRound(plan, *other, RoundKind::kUntraced, cal, t0, ids);
      const std::string what = std::string(spec.name) + "/" + harness::VmKindName(kind);
      expect(!run->fingerprint_drift, (what + ": traced round reproduces the fingerprint").c_str());
      expect(run->work.fingerprint != other->work.fingerprint,
             (what + ": another seed changes the fingerprint").c_str());
      expect(run->errors == 0 && run->mismatches == 0 && run->verified_reads > 0,
             (what + ": reads verified without errors").c_str());
    }
  }
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace vmbench

int main(int argc, char** argv) {
  bench::ArgSession& args = bench::ArgSession::Get();
  args.Capture(argc, argv);
  if (args.ConsumeFlag("--selftest")) {
    bench::RejectUnknownArgs();
    return vmbench::SelfTest();
  }
  vmbench::Options opt;
  const char* workload = args.ConsumeValue("--workload=");
  const char* seed = args.ConsumeValue("--seed=");
  const char* seconds = args.ConsumeValue("--seconds=");
  opt.traced = args.ConsumeFlag("--traced");
  if (const char* spans = args.ConsumeValue("--spans=")) {
    opt.spans_path = spans;
  }
  bench::RejectUnknownArgs();
  if (workload == nullptr || vmbench::FindWorkload(workload) == nullptr || seed == nullptr ||
      seconds == nullptr) {
    std::fprintf(stderr,
                 "usage: vmbench --workload=fork|filemap|paging --seed=N --seconds=N [--traced] "
                 "[--spans=FILE]\n       vmbench --selftest\n");
    return 2;
  }
  opt.workload = workload;
  opt.seed = bench::ParseUint64("--seed", seed);
  opt.seconds = bench::ParseUint64("--seconds", seconds);
  return vmbench::Run(opt);
}
