// Global event counters. Reset between experiment runs; benches and tests
// read these to report the paper's tables (fault counts, map-entry counts,
// I/O operation counts, leak accounting).
#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <cstdint>

namespace sim {

struct Stats {
  // Fault path
  std::uint64_t faults = 0;             // page faults taken
  std::uint64_t fault_neighbor_maps = 0;  // pages mapped by UVM fault lookahead

  // I/O
  std::uint64_t disk_ops = 0;       // distinct I/O operations (seeks)
  std::uint64_t disk_pages_read = 0;
  std::uint64_t disk_pages_written = 0;
  std::uint64_t swap_ops = 0;
  std::uint64_t swap_pages_in = 0;
  std::uint64_t swap_pages_out = 0;

  // I/O error injection and recovery
  std::uint64_t io_errors_injected = 0;  // faults delivered by the injector
  std::uint64_t pagein_errors = 0;       // faults surfaced to a process as kErrIO
  std::uint64_t pageout_retries = 0;     // pageout retry passes after EIO
  std::uint64_t bad_slots_remapped = 0;  // swap slots marked bad and replaced
  // Dirty pages dropped because a terminate-time flush exhausted its
  // retries (object/vnode teardown cannot report failure; a permanently
  // dead disk loses the write, and this counter is the only evidence).
  std::uint64_t pageout_drops = 0;

  // Memory traffic
  std::uint64_t pages_copied = 0;
  std::uint64_t pages_zeroed = 0;

  // Map bookkeeping
  std::uint64_t map_entries_allocated = 0;  // cumulative allocations
  std::uint64_t map_entry_fragmentations = 0;
  std::uint64_t map_entries_merged = 0;  // UVM optional coalescing

  // Hot-path lookup observability. Probes are *modeled* (the virtual-time
  // linear-scan position), independent of the host data structure; hint
  // hits are lookups satisfied by the per-map last-lookup hint.
  std::uint64_t map_lookup_probes = 0;
  std::uint64_t map_hint_hits = 0;
  std::uint64_t pagestore_lookups = 0;  // object page-store probes
  std::uint64_t pte_cache_hits = 0;     // pmap single-entry PTE cache hits

  // Object layer
  std::uint64_t objects_allocated = 0;   // BSD vm_objects (incl. shadows)
  std::uint64_t shadows_created = 0;
  std::uint64_t collapse_attempts = 0;
  std::uint64_t collapses_done = 0;
  std::uint64_t bypasses_done = 0;
  std::uint64_t amaps_allocated = 0;
  std::uint64_t anons_allocated = 0;

  // Cache behaviour
  std::uint64_t object_cache_hits = 0;
  std::uint64_t object_cache_evictions = 0;
  std::uint64_t vnode_cache_hits = 0;
  std::uint64_t vnode_recycles = 0;

  // Lock metering (§3.1: BSD holds the map lock across object teardown)
  std::uint64_t map_lock_acquisitions = 0;
  std::uint64_t map_lock_hold_ns = 0;
  // All sim::SimLock instances combined (map locks included); per-lock-class
  // attribution lives in the machine's LockRegistry (DESIGN.md §15).
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t lock_hold_ns = 0;
  // SMP contention (DESIGN.md §16): acquires that paid queueing delay and
  // the total delay charged. Always zero in single-CPU worlds; not printed
  // by ReportStats (the per-class lock table reports them), so the
  // trace_replay example's stdout, which BENCH_fleet_chaos.sha256 hashes,
  // stays byte-identical.
  std::uint64_t lock_contended_acquires = 0;
  std::uint64_t lock_wait_ns = 0;

  // Pathology accounting
  std::uint64_t leaked_pages_detected = 0;  // inaccessible pages found in chains

  // Resource pressure / pool exhaustion (DESIGN.md §12)
  std::uint64_t pressure_events = 0;        // scripted pressure-plan events applied
  std::uint64_t page_alloc_failures = 0;    // AllocPage denied (empty or reserve-protected)
  std::uint64_t emergency_page_allocs = 0;  // pageout/PT-page allocs that dipped into reserve
  std::uint64_t alloc_retries = 0;          // extra daemon-and-retry passes on the alloc path
  std::uint64_t fault_retries = 0;          // kernel-level fault retries under pressure
  // Fault paths that found their captured Page* freed (generation bumped)
  // by a pagedaemon run inside a blocking allocation, and backed out or
  // re-looked-up instead of touching the recycled frame.
  std::uint64_t fault_stale_page_retries = 0;
  std::uint64_t swap_full_events = 0;       // pageout wanted a swap slot and none was free
  std::uint64_t swap_reserve_allocs = 0;    // slot allocs that dipped into the pageout reserve
  std::uint64_t vnode_table_full = 0;       // vnode table exhausted with nothing recyclable
  std::uint64_t map_entry_pool_denials = 0; // range ops refused for lack of clip headroom
  std::uint64_t oom_kills = 0;              // out-of-swap killer victims
  std::uint64_t oom_pages_reclaimed = 0;    // frames freed by those kills

  // Memory-error injection and containment (DESIGN.md §13)
  std::uint64_t memfault_events = 0;        // scripted memfault-plan events applied
  std::uint64_t frames_poisoned = 0;        // frames marked poisoned by the injector
  std::uint64_t poison_discards = 0;        // clean poisoned pages unmapped and discarded
  std::uint64_t poison_refetches = 0;       // refaults that re-fetched discarded contents
  std::uint64_t poison_kills = 0;           // processes killed over dirty poisoned anon pages
  std::uint64_t poison_pages_reclaimed = 0; // frames freed by those kills
  std::uint64_t poison_loans_broken = 0;    // loaned poisoned pages revoked from borrowers

  void Reset() { *this = Stats{}; }
};

}  // namespace sim

#endif  // SRC_SIM_STATS_H_
