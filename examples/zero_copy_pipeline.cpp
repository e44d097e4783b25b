// §7 data movement in action: a producer/consumer pipeline moving bulk
// data between processes three ways —
//   1. classic double copy through a pipe buffer,
//   2. page loanout + page transfer (per-page, no copies),
//   3. map-entry passing (per-entry, cheapest for large ranges).
// Runs on UVM; under BSD VM only the copy path exists (the program prints
// that the VM-based paths are unsupported).
//
//   ./build/examples/zero_copy_pipeline
#include <cstdio>
#include <vector>

#include "src/harness/world.h"
#include "src/sim/assert.h"

using harness::VmKind;
using harness::World;

namespace {

constexpr std::size_t kChunkPages = 64;  // 256 KB messages

sim::Vaddr ProduceChunk(World& w, kern::Proc* producer, std::byte tag) {
  sim::Vaddr va = 0;
  int err = w.kernel->MmapAnon(producer, &va, kChunkPages * sim::kPageSize, kern::MapAttrs{});
  SIM_ASSERT(err == sim::kOk);
  err = w.kernel->TouchWrite(producer, va, kChunkPages * sim::kPageSize, tag);
  SIM_ASSERT(err == sim::kOk);
  return va;
}

void VerifyChunk(World& w, kern::Proc* consumer, sim::Vaddr va, std::byte tag) {
  std::vector<std::byte> b(1);
  for (std::size_t i = 0; i < kChunkPages; ++i) {
    int err = w.kernel->ReadMem(consumer, va + i * sim::kPageSize, b);
    SIM_ASSERT(err == sim::kOk && b[0] == tag);
  }
}

double ViaDoubleCopy(World& w, kern::Proc* prod, kern::Proc* cons) {
  sim::Vaddr src = ProduceChunk(w, prod, std::byte{0x11});
  sim::Nanoseconds start = w.machine.clock().now();
  // copyin to a kernel buffer, copyout into the consumer.
  std::vector<std::byte> pipe_buf(kChunkPages * sim::kPageSize);
  int err = w.kernel->ReadMem(prod, src, pipe_buf);
  SIM_ASSERT(err == sim::kOk);
  w.machine.Charge(w.machine.cost().page_copy_ns * kChunkPages);  // copyin
  sim::Vaddr dst = 0;
  err = w.kernel->MmapAnon(cons, &dst, kChunkPages * sim::kPageSize, kern::MapAttrs{});
  SIM_ASSERT(err == sim::kOk);
  err = w.kernel->WriteMem(cons, dst, pipe_buf);  // copyout
  SIM_ASSERT(err == sim::kOk);
  w.machine.Charge(w.machine.cost().page_copy_ns * kChunkPages);
  double us = static_cast<double>(w.machine.clock().now() - start) * 1e-3;
  VerifyChunk(w, cons, dst, std::byte{0x11});
  return us;
}

double ViaPageTransfer(World& w, kern::Proc* prod, kern::Proc* cons) {
  sim::Vaddr src = ProduceChunk(w, prod, std::byte{0x22});
  sim::Nanoseconds start = w.machine.clock().now();
  sim::Vaddr dst = 0;
  int err = w.kernel->PageTransfer(prod, src, kChunkPages * sim::kPageSize, cons, &dst);
  if (err == sim::kErrNotSup) {
    std::printf("  page transfer:    unsupported by this VM system\n");
    return -1;
  }
  SIM_ASSERT(err == sim::kOk);
  double us = static_cast<double>(w.machine.clock().now() - start) * 1e-3;
  VerifyChunk(w, cons, dst, std::byte{0x22});
  return us;
}

double ViaMapEntryPassing(World& w, kern::Proc* prod, kern::Proc* cons) {
  sim::Vaddr src = ProduceChunk(w, prod, std::byte{0x33});
  sim::Nanoseconds start = w.machine.clock().now();
  sim::Vaddr dst = 0;
  int err = w.kernel->ExtractRange(prod, src, kChunkPages * sim::kPageSize, cons, &dst,
                                   kern::ExtractMode::kMove);
  if (err == sim::kErrNotSup) {
    std::printf("  map-entry pass:   unsupported by this VM system\n");
    return -1;
  }
  SIM_ASSERT(err == sim::kOk);
  double us = static_cast<double>(w.machine.clock().now() - start) * 1e-3;
  VerifyChunk(w, cons, dst, std::byte{0x33});
  return us;
}

void RunOn(VmKind kind) {
  std::printf("\n--- %s: moving a 256 KB chunk between processes ---\n",
              harness::VmKindName(kind));
  World w(kind);
  kern::Proc* prod = w.kernel->Spawn();
  kern::Proc* cons = w.kernel->Spawn();
  double copy_us = ViaDoubleCopy(w, prod, cons);
  std::printf("  double copy:      %8.1f us\n", copy_us);
  double xfer_us = ViaPageTransfer(w, prod, cons);
  if (xfer_us >= 0) {
    std::printf("  page transfer:    %8.1f us  (%.1fx faster)\n", xfer_us, copy_us / xfer_us);
  }
  double pass_us = ViaMapEntryPassing(w, prod, cons);
  if (pass_us >= 0) {
    std::printf("  map-entry pass:   %8.1f us  (%.1fx faster)\n", pass_us, copy_us / pass_us);
  }
  w.CheckInvariants();
}

}  // namespace

int main() {
  std::printf("Zero-copy data movement (§7): copy vs loan/transfer vs map-entry passing.\n");
  RunOn(VmKind::kBsd);
  RunOn(VmKind::kUvm);
  return 0;
}
