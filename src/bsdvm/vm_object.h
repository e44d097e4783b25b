// The Mach-derived BSD VM object layer (§4, §5.1 of the paper): standalone
// vm_object structures, shadow-object chains for copy-on-write, the chain
// collapse/bypass machinery, and the 100-entry unreferenced-object cache.
// This is the baseline the paper replaces; its known pathologies (chain
// search cost, swap leaks, double caching) are reproduced faithfully and
// instrumented.
#ifndef SRC_BSDVM_VM_OBJECT_H_
#define SRC_BSDVM_VM_OBJECT_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>

#include "src/phys/page_store.h"
#include "src/phys/phys_mem.h"
#include "src/sim/types.h"

namespace bsdvm {

class Pager;

// A memory object: a container of pages backed by a pager, optionally
// shadowing another object for copy-on-write.
class VmObject {
 public:
  // `chunk_pool` and `stats` serve the page store (phys::PageStore).
  VmObject(std::size_t size_pages, bool internal, sim::PoolResource& chunk_pool,
           sim::Stats* stats)
      : size_pages_(size_pages), internal_(internal), pages(chunk_pool, stats) {}

  VmObject(const VmObject&) = delete;
  VmObject& operator=(const VmObject&) = delete;

  int ref_count = 0;
  // Creation order (assigned by BsdVm::NewObject). Deterministic identity
  // for ordered walks and teardown: pointer values vary run to run.
  std::uint64_t id = 0;
  std::size_t size_pages_;
  bool internal_;           // anonymous (shadow / zero-fill) object
  bool can_persist_ = false;  // vnode-backed: eligible for the object cache
  bool in_cache_ = false;

  // Resident pages keyed by page index within this object.
  phys::PageStore pages;

  // Copy-on-write backing chain. To translate a page index in this object
  // into the backing object: backing_index = index + shadow_pgoffset.
  VmObject* shadow = nullptr;
  std::uint64_t shadow_pgoffset = 0;

  // Backing store access; null until first needed (swap pagers are created
  // lazily on first pageout).
  std::unique_ptr<Pager> pager;

  phys::Page* LookupPage(std::uint64_t pgindex) const { return pages.Lookup(pgindex); }
};

}  // namespace bsdvm

#endif  // SRC_BSDVM_VM_OBJECT_H_
