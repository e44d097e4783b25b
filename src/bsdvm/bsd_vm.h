// The BSD VM baseline system: the Mach-derived 4.4BSD virtual memory design
// the paper replaces. Implements kern::VmSystem with shadow-object chains,
// the collapse operation, the 100-entry object cache, two-step mapping
// (establish with default attributes, then modify), single-lock unmap, map
// fragmentation on every wiring, and one-page-at-a-time pageout I/O.
#ifndef SRC_BSDVM_BSD_VM_H_
#define SRC_BSDVM_BSD_VM_H_

#include <cstddef>
#include <list>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/bsdvm/pagers.h"
#include "src/bsdvm/vm_map.h"
#include "src/bsdvm/vm_object.h"
#include "src/vm/vm_iface.h"
#include "src/mmu/pmap.h"
#include "src/phys/phys_mem.h"
#include "src/sim/lock.h"
#include "src/sim/machine.h"
#include "src/swap/swap_device.h"
#include "src/vfs/vnode.h"

namespace bsdvm {

class BsdVm;

class BsdAddressSpace : public kern::AddressSpace {
 public:
  BsdAddressSpace(BsdVm& vm, bool is_kernel);

  mmu::Pmap& pmap() override { return pmap_; }
  std::size_t EntryCount() const override { return map_.entry_count(); }

  VmMap& map() { return map_; }

 private:
  friend class BsdVm;
  VmMap map_;
  // BSD VM mirrors each page-table page into the kernel map (§3.2); this
  // records which kernel-map entry belongs to which PT page for teardown.
  std::unordered_map<phys::Page*, sim::Vaddr> ptpage_entries_;
  mmu::Pmap pmap_;
};

struct BsdConfig {
  std::size_t object_cache_limit = 100;  // §4: the one-hundred-file limit
  std::size_t kernel_map_entries = 4096;  // fixed kernel entry pool
  bool enable_collapse = true;            // ablation switch
};

class BsdVm : public kern::VmSystem {
 public:
  BsdVm(sim::Machine& machine, phys::PhysMem& pm, mmu::MmuContext& mmu, vfs::VnodeCache& vnodes,
        swp::SwapDevice& swap, const BsdConfig& config = BsdConfig{});
  ~BsdVm() override;

  const char* name() const override { return "bsdvm"; }

  kern::AddressSpace* CreateAddressSpace() override;
  kern::AddressSpace* Fork(kern::AddressSpace& parent) override;
  kern::AddressSpace& kernel_as() override { return *kernel_as_; }

  int Map(kern::AddressSpace& as, sim::Vaddr* addr, std::uint64_t len, vfs::Vnode* vn,
          sim::ObjOffset off, const kern::MapAttrs& attrs) override;
  int MapDevice(kern::AddressSpace& as, sim::Vaddr* addr, kern::DeviceMem& dev,
                const kern::MapAttrs& attrs) override;
  int Unmap(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len) override;
  int Protect(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len,
              sim::Prot prot) override;
  int SetInherit(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len,
                 sim::Inherit inherit) override;
  int SetAdvice(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len,
                sim::Advice advice) override;
  int Msync(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len) override;
  int MadvFree(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len) override;
  int Mincore(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len,
              std::vector<bool>* out) override;

  int Wire(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len) override;
  int Unwire(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len) override;
  int WireTransient(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len,
                    kern::TransientWiring* out) override;
  void UnwireTransient(kern::AddressSpace& as, kern::TransientWiring& tw) override;

  int MapProcRange(std::size_t npages, kern::ProcKernelResources* out) override;
  void SetProcRangesWired(kern::ProcKernelResources& res, bool wired) override;
  void UnmapProcRanges(kern::ProcKernelResources& res) override;

  int Fault(kern::AddressSpace& as, sim::Vaddr addr, sim::Access access) override;

  std::size_t PageDaemon(std::size_t target_free) override;

  std::size_t AnonResidentPages(kern::AddressSpace& as) const override;

  // --- BSD-specific introspection used by tests and benches ---
  std::size_t object_cache_size() const { return object_cache_.size(); }
  std::size_t live_objects() const { return all_objects_.size(); }
  // Total anonymous pages held (resident + swapped) across all internal
  // objects. The swap-leak test compares this against the number of
  // distinct accessible pages.
  std::size_t TotalAnonPages() const;
  // Longest shadow chain below any entry of `as`.
  std::size_t MaxChainDepth(kern::AddressSpace& as) const;

  sim::Machine& machine() { return machine_; }

 private:
  friend class BsdAddressSpace;

  VmObject* NewObject(std::size_t size_pages, bool internal);
  // Swap pagers share the VM-wide swap-block slab.
  std::unique_ptr<SwapPager> NewSwapPager();
  VmObject* ObjectForVnode(vfs::Vnode* vn);
  void RefObject(VmObject* obj);
  void DerefObject(VmObject* obj);
  void TerminateObject(VmObject* obj);
  void CacheInsert(VmObject* obj);
  void CacheRemove(VmObject* obj);

  // Give `entry` a fresh shadow object, clearing needs-copy.
  void ShadowEntry(MapEntry& entry);
  void TryCollapse(VmObject* top);
  bool CanBypass(const VmObject* o, const VmObject* s) const;

  phys::Page* AllocPageInObject(VmObject* obj, std::uint64_t pgindex, bool zero);
  // phys::AllocOrReclaim with this VM's pagedaemon; nullptr on true
  // exhaustion.
  phys::Page* AllocPageReclaim(phys::OwnerKind kind, void* owner, sim::ObjOffset offset,
                               bool zero);
  // Remove a page from its object and free the frame (mappings removed).
  void FreeObjectPage(phys::Page* p);
  // The per-VM halves of phys::ScanQueues: one page per pageout I/O (§6).
  void ContainQueuedPoison(phys::Page* p);
  std::size_t ReclaimPage(phys::Page* p);

  // --- hwpoison containment (DESIGN.md §13) ---
  // A fault found a poisoned resident page in the chain. Clean pages are
  // discarded (backing store or zero fill refetches transparently); dirty
  // pages are unrecoverable — kErrMemPoison, and the kernel kills the
  // toucher. Dirty vnode pages are additionally dropped so the stale
  // on-disk copy serves later faults instead of killing every mapper.
  int ContainPoisonedPage(phys::Page* p);
  // Registered with sim::Auditor as "bsd.state": object refcount/cache
  // invariants, page back-pointers, swap-slot ownership.
  void AuditState(sim::Auditor& auditor) const;

  // Fault() through kern::HandleFault; map_locked is the wire path's fault.
  int FaultIn(BsdAddressSpace& as, sim::Vaddr va, sim::Access access, bool map_locked);
  // The fault's own step: the shadow-chain walk for `va` in entry `e`.
  int FaultBody(BsdAddressSpace& as, MapEntry& e, sim::Vaddr va, bool write);

  // The reference a clip adds: the new half shares the object.
  void RefClip(MapEntry& e);
  // Insert a wired kernel-map entry of `npages` at the lowest free address
  // (a u-area or kernel stack range, or a page-table page's mirror).
  int MapWiredKernelRange(std::size_t npages, sim::Vaddr* va);

  sim::Machine& machine_;
  phys::PhysMem& pm_;
  mmu::MmuContext& mmu_;
  vfs::VnodeCache& vnodes_;
  swp::SwapDevice& swap_;
  BsdConfig config_;

  // Class-level stand-in for BSD's per-object locks: the fault chain walk
  // takes it once per hop, folding the hop cost into the acquire so the
  // virtual-time charge matches the pre-SimLock model exactly.
  sim::SimLock object_chain_lock_;

  std::unique_ptr<BsdAddressSpace> kernel_as_;
  // Ordered by creation id, not pointer value: walks over the live-object
  // registry (TotalAnonPages, AuditState) must not depend on where the
  // allocator happened to place each object.
  struct VmObjectIdLess {
    bool operator()(const VmObject* a, const VmObject* b) const { return a->id < b->id; }
  };
  std::set<VmObject*, VmObjectIdLess> all_objects_;
  std::uint64_t next_object_id_ = 0;
  std::unordered_map<vfs::Vnode*, VmObject*> pager_hash_;
  std::list<VmObject*> object_cache_;  // front = least recently cached
  // Device objects: one per mapped device, permanently referenced by this
  // registry (BSD's device pager kept the pages for the device lifetime).
  // In creation order, which is the order teardown frees their frames in.
  std::vector<std::pair<kern::DeviceMem*, VmObject*>> device_objects_;
  int audit_token_ = 0;
};

}  // namespace bsdvm

#endif  // SRC_BSDVM_BSD_VM_H_
