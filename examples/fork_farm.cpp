// Fork-farm scenario: a parent with a large in-memory dataset forks a pool
// of workers. Copy-on-write means the dataset is shared until written, so
// resident memory grows with writes, not with workers — and UVM's fork path
// is visibly cheaper than BSD VM's (Figure 6).
//
//   ./build/examples/fork_farm [workers] [dataset_mb]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/harness/world.h"
#include "src/sim/assert.h"

using harness::VmKind;
using harness::World;
using harness::WorldConfig;

namespace {

void RunOn(VmKind kind, int workers, std::size_t dataset_mb) {
  WorldConfig cfg;
  cfg.ram_pages = 32768;  // 128 MB
  World w(kind, cfg);
  kern::Proc* parent = w.kernel->Spawn();

  const std::uint64_t len = dataset_mb * 1024 * 1024;
  const std::size_t npages = len / sim::kPageSize;
  sim::Vaddr data = 0;
  int err = w.kernel->MmapAnon(parent, &data, len, kern::MapAttrs{});
  SIM_ASSERT(err == sim::kOk);
  for (std::uint64_t off = 0; off < len; off += sim::kPageSize) {
    w.kernel->TouchWrite(parent, data + off, 1, std::byte{0x42});
  }
  std::size_t resident_before = w.pm.total_pages() - w.pm.free_pages();

  // Fork the worker pool.
  sim::Nanoseconds start = w.machine.clock().now();
  std::vector<kern::Proc*> pool;
  for (int i = 0; i < workers; ++i) {
    pool.push_back(w.kernel->Fork(parent));
  }
  double fork_us = static_cast<double>(w.machine.clock().now() - start) * 1e-3;

  // Each worker reads the whole dataset and modifies a private 1/16 slice.
  start = w.machine.clock().now();
  std::uint64_t copies_before = w.machine.stats().pages_copied;
  for (int i = 0; i < workers; ++i) {
    w.kernel->TouchRead(pool[i], data, len);
    std::uint64_t slice = len / 16;
    w.kernel->TouchWrite(pool[i], data + (i % 16) * slice, slice,
                         std::byte{static_cast<unsigned char>(i)});
  }
  double work_us = static_cast<double>(w.machine.clock().now() - start) * 1e-3;
  std::size_t resident_after = w.pm.total_pages() - w.pm.free_pages();
  std::uint64_t copied = w.machine.stats().pages_copied - copies_before;

  std::printf("%-6s: fork pool %8.0f us; work %9.0f us; dataset %zu pages; "
              "resident grew by %zu pages (%llu COW copies)\n",
              harness::VmKindName(kind), fork_us, work_us, npages,
              resident_after - resident_before, static_cast<unsigned long long>(copied));

  for (kern::Proc* worker : pool) {
    w.kernel->Exit(worker);
  }
  w.CheckInvariants();
}

}  // namespace

int main(int argc, char** argv) {
  int workers = argc > 1 ? std::atoi(argv[1]) : 8;
  std::size_t mb = argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 16;
  std::printf("Fork farm: %d workers over a %zu MB copy-on-write dataset.\n\n", workers, mb);
  RunOn(VmKind::kBsd, workers, mb);
  RunOn(VmKind::kUvm, workers, mb);
  std::printf("\nResident memory grows only by what the workers write — the dataset\n"
              "itself is shared copy-on-write across the whole pool.\n");
  return 0;
}
