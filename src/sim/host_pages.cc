#include "src/sim/host_pages.h"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>

namespace sim {

HostPages::HostPages(std::size_t pages, Residency residency) : pages_(pages) {
  if (pages == 0) {
    return;
  }
  int flags = MAP_PRIVATE | MAP_ANONYMOUS;
  if (residency == Residency::kPopulated) {
    flags |= MAP_POPULATE;
  }
  void* p = mmap(nullptr, pages * kPageSize, PROT_READ | PROT_WRITE, flags, -1, 0);
  if (p == MAP_FAILED) {
    SIM_PANICF("mmap of %zu host pages failed: %s", pages, std::strerror(errno));
  }
  base_ = static_cast<std::byte*>(p);
}

HostPages::~HostPages() {
  if (base_ != nullptr) {
    munmap(base_, pages_ * kPageSize);
  }
}

}  // namespace sim
