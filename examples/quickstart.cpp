// Quickstart: build a simulated machine, run the same program against both
// VM systems, and watch the paper's core mechanisms at work — memory-mapped
// file access, copy-on-write fork, and paging under pressure.
//
//   ./build/examples/quickstart
#include <cstdio>

#include "src/harness/world.h"
#include "src/sim/assert.h"

using harness::VmKind;
using harness::World;
using harness::WorldConfig;

namespace {

void RunOn(VmKind kind) {
  std::printf("\n--- running on %s ---\n", harness::VmKindName(kind));

  // A machine with 8 MB of RAM and 32 MB of swap.
  WorldConfig cfg;
  cfg.ram_pages = 2048;
  cfg.swap_slots = 8192;
  World w(kind, cfg);

  // Put a file on the simulated disk and start a process.
  w.fs.CreateFilePattern("/data/input.db", 64 * sim::kPageSize);
  kern::Proc* proc = w.kernel->Spawn();

  // 1. Memory-map the file and read it.
  sim::Vaddr file_va = 0;
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  int err = w.kernel->Mmap(proc, &file_va, 64 * sim::kPageSize, "/data/input.db", 0, ro);
  SIM_ASSERT(err == sim::kOk);
  err = w.kernel->TouchRead(proc, file_va, 64 * sim::kPageSize);
  SIM_ASSERT(err == sim::kOk);
  std::printf("mapped and read a 256 KB file: %llu faults, %llu disk I/O ops\n",
              static_cast<unsigned long long>(w.machine.stats().faults),
              static_cast<unsigned long long>(w.machine.stats().disk_ops));

  // 2. Allocate anonymous memory and fork a worker that modifies its copy.
  sim::Vaddr anon_va = 0;
  err = w.kernel->MmapAnon(proc, &anon_va, 32 * sim::kPageSize, kern::MapAttrs{});
  SIM_ASSERT(err == sim::kOk);
  w.kernel->TouchWrite(proc, anon_va, 32 * sim::kPageSize, std::byte{0xaa});

  std::uint64_t copies_before = w.machine.stats().pages_copied;
  kern::Proc* worker = w.kernel->Fork(proc);
  w.kernel->TouchWrite(worker, anon_va, 4 * sim::kPageSize, std::byte{0xbb});
  std::printf("fork + 4-page write: %llu pages copied (the other 28 stay shared)\n",
              static_cast<unsigned long long>(w.machine.stats().pages_copied - copies_before));

  std::vector<std::byte> b(1);
  w.kernel->ReadMem(proc, anon_va, b);
  std::printf("parent still sees 0x%02x; ", static_cast<unsigned>(b[0]));
  w.kernel->ReadMem(worker, anon_va, b);
  std::printf("worker sees 0x%02x\n", static_cast<unsigned>(b[0]));
  w.kernel->Exit(worker);

  // 3. Allocate past physical memory and watch the pagedaemon work.
  sim::Vaddr big_va = 0;
  err = w.kernel->MmapAnon(proc, &big_va, 3000 * sim::kPageSize, kern::MapAttrs{});
  SIM_ASSERT(err == sim::kOk);
  for (std::size_t i = 0; i < 3000; ++i) {
    err = w.kernel->TouchWrite(proc, big_va + i * sim::kPageSize, 1, std::byte{1});
    SIM_ASSERT(err == sim::kOk);
  }
  std::printf("allocated 12 MB in 8 MB of RAM: %llu pages swapped out in %llu I/O ops\n",
              static_cast<unsigned long long>(w.machine.stats().swap_pages_out),
              static_cast<unsigned long long>(w.machine.stats().swap_ops));
  std::printf("total virtual time: %.3f s\n", w.machine.clock().now_seconds());

  w.CheckInvariants();
}

}  // namespace

int main() {
  std::printf("UVM reproduction quickstart: the same workload on both VM systems.\n");
  RunOn(VmKind::kBsd);
  RunOn(VmKind::kUvm);
  std::printf("\nNote the UVM run's smaller I/O operation count: clustered pagein (8-page\n"
              "reads) and the pagedaemon's clustered, slot-reassigned pageout (§6).\n");
  return 0;
}
