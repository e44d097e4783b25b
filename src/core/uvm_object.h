// UVM memory objects (§4) and pagers (§6). A uvm_object is a small
// embeddable structure — a page list, a reference count, and a pointer
// directly to a static table of pager operations. For file data the object
// is embedded inside the vnode (via the VnodeAttachment hook), so mapping a
// file allocates nothing and consults no hash table, in contrast to BSD
// VM's three separately allocated structures plus a pager hash.
//
// The UVM pager API has the *pager* allocate pages and permits multi-page
// clustered I/O — both §6 design points.
#ifndef SRC_CORE_UVM_OBJECT_H_
#define SRC_CORE_UVM_OBJECT_H_

#include <cstdint>
#include <span>

#include "src/phys/page_store.h"
#include "src/phys/phys_mem.h"
#include "src/sim/types.h"
#include "src/vm/vm_iface.h"
#include "src/vfs/vnode.h"

namespace uvm {

class Uvm;
class UvmObject;

// Static per-object-type operations table ("pagerops"). Objects point at
// one of these directly; there is no per-object pager allocation.
class PagerOps {
 public:
  virtual ~PagerOps() = default;

  // Fetch the page at `pgindex`, allocating it inside the object (the UVM
  // pager API change: allocation belongs to the pager). May additionally
  // fetch up to `max_cluster` pages in the same I/O operation (the fault
  // handler passes 1 for MADV_RANDOM mappings).
  // Returns the page through *out; kErrFault if there is no backing data.
  virtual int Get(Uvm& vm, UvmObject& obj, std::uint64_t pgindex, std::size_t max_cluster,
                  phys::Page** out) = 0;

  // Write a run of resident pages (ascending contiguous indices) back to
  // backing store in a single I/O operation.
  virtual int Put(Uvm& vm, UvmObject& obj, std::span<phys::Page* const> pages) = 0;

  // Does backing store hold data for this index?
  virtual bool HasBacking(UvmObject& obj, std::uint64_t pgindex) const = 0;

  // Reference management is routed through the pager so the external
  // subsystem that embeds the object controls its lifetime (§4).
  virtual void Reference(Uvm& vm, UvmObject& obj) = 0;
  virtual void Detach(Uvm& vm, UvmObject& obj) = 0;
};

class UvmObject {
 public:
  // `chunk_pool` and `stats` serve the page store (phys::PageStore).
  UvmObject(PagerOps* ops, sim::PoolResource& chunk_pool, sim::Stats* stats)
      : pgops(ops), pages(chunk_pool, stats) {}

  UvmObject(const UvmObject&) = delete;
  UvmObject& operator=(const UvmObject&) = delete;

  PagerOps* pgops;
  int ref_count = 0;
  phys::PageStore pages;
  // Back-pointer to the embedding structure (e.g. the UvmVnode); the pager
  // ops know the concrete type.
  void* impl = nullptr;

  phys::Page* LookupPage(std::uint64_t pgindex) const { return pages.Lookup(pgindex); }
};

// The uvm_vnode: UVM's per-vnode state, embedded in the vnode through the
// attachment hook. Holds the uvm_object whose pages cache the file data.
// While the object is referenced (mapped), UVM holds one vnode reference;
// once unreferenced the pages simply stay on the object and live exactly as
// long as the vnode stays in the vnode cache — the single-layer cache that
// replaces BSD VM's limited object cache (§4).
class UvmVnode : public vfs::VnodeAttachment {
 public:
  UvmVnode(Uvm& vm, vfs::Vnode* vn);

  // uvm_vnp_terminate(): called by the vnode cache when recycling the
  // vnode; flushes dirty pages and frees the rest.
  void Terminate(vfs::Vnode& vn) override;

  UvmObject uobj;
  vfs::Vnode* vn;
  Uvm& vm;
};

// The uvm_device: per-device VM state, embedding a uvm_object whose pages
// ARE the device's frames. The device pager's Get never allocates or does
// I/O — it hands back the pre-existing page, the §6 "ROM pages" case the
// pager-allocates API was designed for.
class UvmDevice {
 public:
  UvmDevice(Uvm& vm, kern::DeviceMem* dev);

  UvmObject uobj;
  kern::DeviceMem* dev;
  Uvm& vm;
};

// Pager ops singletons.
PagerOps* VnodePagerOps();
PagerOps* DevicePagerOps();

}  // namespace uvm

#endif  // SRC_CORE_UVM_OBJECT_H_
