// Host memory behind simulated page-sized storage: the bytes of physical
// frames (phys::PhysMem) and of swap slots (swp::SwapDevice). One anonymous
// private mapping, which the host kernel zero-fills, so nothing here ever
// clears a byte itself. Linux only, like vmbench's /proc reads.
//
// The residency choice is host cost only; no virtual-time charge, counter
// or output byte depends on it (DESIGN.md §9):
//  - kLazy: a page's host memory appears on its first write. Swap is lazy,
//    since most runs never write a slot.
//  - kPopulated: the host kernel faults in and zeroes every page during the
//    constructor (MAP_POPULATE). RAM is populated, so the first touch of a
//    frame inside a timed phase costs no host page fault.
#ifndef SRC_SIM_HOST_PAGES_H_
#define SRC_SIM_HOST_PAGES_H_

#include <cstddef>
#include <span>

#include "src/sim/assert.h"
#include "src/sim/types.h"

namespace sim {

class HostPages {
 public:
  enum class Residency { kLazy, kPopulated };

  // `pages` may be zero: no mapping is made.
  HostPages(std::size_t pages, Residency residency);
  ~HostPages();

  HostPages(const HostPages&) = delete;
  HostPages& operator=(const HostPages&) = delete;

  std::size_t pages() const { return pages_; }

  // The bytes of page `i`; panics when `i` is out of range.
  std::span<std::byte, kPageSize> Page(std::size_t i) {
    SIM_ASSERT(i < pages_);
    return std::span<std::byte, kPageSize>(base_ + i * kPageSize, kPageSize);
  }
  std::span<const std::byte, kPageSize> Page(std::size_t i) const {
    SIM_ASSERT(i < pages_);
    return std::span<const std::byte, kPageSize>(base_ + i * kPageSize, kPageSize);
  }

 private:
  std::byte* base_ = nullptr;
  std::size_t pages_;
};

}  // namespace sim

#endif  // SRC_SIM_HOST_PAGES_H_
