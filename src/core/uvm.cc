#include "src/core/uvm.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "src/phys/pagedaemon.h"
#include "src/sim/annotations.h"
#include "src/sim/assert.h"
#include "src/sim/retry.h"
#include "src/vm/range_ops.h"

namespace uvm {

using kern::kKernMax;
using kern::kKernMin;
using kern::kUserMax;
using kern::kUserMin;

UvmAddressSpace::UvmAddressSpace(Uvm& vm, bool is_kernel)
    : map_(vm.machine(), is_kernel ? kKernMin : kUserMin, is_kernel ? kKernMax : kUserMax,
           is_kernel ? vm.config().kernel_map_entries : 0, is_kernel ? "uvm.kmap" : "uvm.map"),
      // UVM: the wired state of page-table pages lives only in the pmap
      // (§3.2) — no kernel-map hooks.
      pmap_(vm.mmu_, is_kernel) {}

Uvm::Uvm(sim::Machine& machine, phys::PhysMem& pm, mmu::MmuContext& mmu, vfs::VnodeCache& vnodes,
         swp::SwapDevice& swap, const UvmConfig& config)
    : machine_(machine),
      pm_(pm),
      mmu_(mmu),
      vnodes_(vnodes),
      swap_(swap),
      config_(config),
      object_lock_(machine, "uvm.object", sim::LockRank::kObject),
      amap_lock_(machine, "uvm.amap", sim::LockRank::kAmap) {
  kernel_as_ = std::make_unique<UvmAddressSpace>(*this, /*is_kernel=*/true);
  poison_hook_token_ = pm_.AddPoisonHook([this](phys::Page* p) { OnPoison(p); });
  audit_token_ =
      machine_.auditor().Register("uvm.state", [this](sim::Auditor& a) { AuditState(a); });
}

Uvm::~Uvm() {
  // Release kernel-map reservations.
  Unmap(*kernel_as_, kKernMin, kKernMax - kKernMin);
  // Detach our per-vnode state before the vnode cache outlives us.
  // Terminate erases from attached_vnodes_ (via ForgetVnode), so drain a
  // snapshot — sorted by name, not pointer hash order, since terminate
  // flushes dirty pages and I/O order is observable.
  SIM_ORDERED_OK("collect only; sorted by name below");
  std::vector<vfs::Vnode*> attached(attached_vnodes_.begin(), attached_vnodes_.end());
  std::sort(attached.begin(), attached.end(),
            [](const vfs::Vnode* a, const vfs::Vnode* b) { return a->name() < b->name(); });
  for (vfs::Vnode* vn : attached) {
    if (vn->attachment() != nullptr) {
      vn->attachment()->Terminate(*vn);
      vn->set_attachment(nullptr);
    }
  }
  attached_vnodes_.clear();
  // Devices in creation order: the freed frames reach the allocator's free
  // list, whose order later allocations observe.
  for (auto& udev : devices_) {
    kern::FreeDeviceFrames(mmu_, pm_, udev->uobj.pages);
  }
  devices_.clear();
  SIM_ASSERT_MSG(all_anons_.empty(), "Uvm destroyed with live anons");
  SIM_ASSERT_MSG(all_amaps_.empty(), "Uvm destroyed with live amaps");
  machine_.auditor().Unregister(audit_token_);
  pm_.RemovePoisonHook(poison_hook_token_);
}

kern::AddressSpace* Uvm::CreateAddressSpace() {
  return new UvmAddressSpace(*this, /*is_kernel=*/false);
}

// ---------------------------------------------------------------------------
// anon / amap management

Anon* Uvm::NewAnon() {
  machine_.Charge(sim::CostCat::kAlloc, machine_.cost().anon_alloc_ns);
  ++machine_.stats().anons_allocated;
  Anon* a = machine_.pools().New<Anon>();
  all_anons_.insert(a);
  return a;
}

void Uvm::DerefAnon(Anon* a) {
  SIM_ASSERT(a->ref_count > 0);
  if (--a->ref_count > 0) {
    return;
  }
  if (a->page != nullptr) {
    phys::Page* p = a->page;
    if (p->loan_count > 0) {
      // The kernel still holds a loan on this page: orphan it; the final
      // Unloan() frees it.
      mmu_.PageProtect(p, sim::Prot::kNone);
      p->owner_kind = phys::OwnerKind::kKernel;
      p->owner = nullptr;
    } else {
      mmu_.PageProtect(p, sim::Prot::kNone);
      pm_.FreePage(p);
    }
    a->page = nullptr;
  }
  if (a->swap_slot != swp::kNoSlot) {
    swap_.FreeSlot(a->swap_slot);
    a->swap_slot = swp::kNoSlot;
  }
  all_anons_.erase(a);
  machine_.pools().Delete(a);
}

Amap* Uvm::NewAmap(std::uint64_t nslots) {
  machine_.Charge(sim::CostCat::kAlloc, machine_.cost().amap_alloc_per_slot_ns * nslots);
  ++machine_.stats().amaps_allocated;
  Amap* am =
      machine_.pools().New<Amap>(MakeAmapImpl(config_.amap_policy, nslots, machine_.pools()));
  all_amaps_.insert(am);
  return am;
}

void Uvm::DerefAmap(Amap* am) {
  SIM_ASSERT(am->ref_count > 0);
  if (--am->ref_count > 0) {
    return;
  }
  am->impl->ForEach([this](std::uint64_t, Anon* a) { DerefAnon(a); });
  all_amaps_.erase(am);
  machine_.pools().Delete(am);
}

void Uvm::EnsureAmap(UvmMapEntry& e) {
  if (e.amap != nullptr) {
    return;
  }
  e.amap = NewAmap(e.npages());
  e.amap_slotoff = 0;
}

void Uvm::AmapCopy(UvmMapEntry& e) {
  SIM_ASSERT(e.needs_copy);
  if (e.amap == nullptr) {
    // Nothing to copy; a fresh empty amap clears needs-copy.
    e.amap = NewAmap(e.npages());
    e.amap_slotoff = 0;
    e.needs_copy = false;
    return;
  }
  if (e.amap->ref_count == 1 && !e.amap->shared) {
    // We hold the only reference (e.g. the child faulting after the parent
    // already copied, Figure 3): just clear the flag and reuse the amap.
    e.needs_copy = false;
    return;
  }
  std::uint64_t n = e.npages();
  Amap* na = NewAmap(n);
  {
    sim::LockGuard amap_g(amap_lock_);
    for (std::uint64_t i = 0; i < n; ++i) {
      Anon* a = e.amap->Get(e.amap_slotoff + i);
      if (a != nullptr) {
        RefAnon(a);
        na->Set(i, a);
      }
    }
  }
  DerefAmap(e.amap);
  e.amap = na;
  e.amap_slotoff = 0;
  e.needs_copy = false;
}

// ---------------------------------------------------------------------------
// object management

UvmObject* Uvm::GetVnodeObject(vfs::Vnode* vn) {
  auto* uvn = static_cast<UvmVnode*>(vn->attachment());
  if (uvn == nullptr) {
    // The uvm_vnode is embedded in the vnode; creating it is part of vnode
    // setup, not a separate VM allocation (§4, Figure 4).
    auto owned = std::make_unique<UvmVnode>(*this, vn);
    uvn = owned.get();
    vn->set_attachment(std::move(owned));
    attached_vnodes_.insert(vn);
  }
  uvn->uobj.pgops->Reference(*this, uvn->uobj);
  return &uvn->uobj;
}

void Uvm::DetachObject(UvmObject* obj) { obj->pgops->Detach(*this, *obj); }

void Uvm::ReleaseObjectPage(phys::Page* p) {
  SIM_ASSERT(p->owner_kind == phys::OwnerKind::kUvmObject);
  auto* obj = static_cast<UvmObject*>(p->owner);
  mmu_.PageProtect(p, sim::Prot::kNone);
  obj->pages.erase(p->offset);
  if (p->loan_count > 0) {
    p->owner_kind = phys::OwnerKind::kKernel;
    p->owner = nullptr;
    return;
  }
  pm_.FreePage(p);
}

phys::Page* Uvm::AllocPageOrReclaim(phys::OwnerKind kind, void* owner, sim::ObjOffset offset,
                                    bool zero) {
  return phys::AllocOrReclaim(pm_, kern::kMaxAllocRetries, kind, owner, offset, zero,
                              [this] { PageDaemon(pm_.free_target()); });
}

// ---------------------------------------------------------------------------
// Mapping operations (§3.1): one locked pass applies every attribute.

namespace {

// The entry fields Map and MapDevice both take from the caller's attributes.
UvmMapEntry NewEntry(sim::Vaddr start, std::uint64_t len, const kern::MapAttrs& attrs) {
  UvmMapEntry e;
  e.start = start;
  e.end = start + len;
  e.prot = attrs.prot;
  e.max_prot = attrs.max_prot;
  e.advice = attrs.advice;
  e.copy_on_write = !attrs.shared;
  e.inherit = attrs.inherit.value_or(attrs.shared ? sim::Inherit::kShared : sim::Inherit::kCopy);
  return e;
}

}  // namespace

int Uvm::Map(kern::AddressSpace& as_, sim::Vaddr* addr, std::uint64_t len, vfs::Vnode* vn,
             sim::ObjOffset off, const kern::MapAttrs& attrs) {
  sim::ChargeScope scope(machine_, sim::CostCat::kMap, "uvm_map");
  auto& as = static_cast<UvmAddressSpace&>(as_);
  len = sim::PageRound(len);
  if (len == 0) {
    return sim::kErrInval;
  }
  UvmMap& map = as.map_;
  map.Lock();
  if (int err = map.ChooseSpace(addr, len, attrs.fixed); err != sim::kOk) {
    map.Unlock();
    return err;
  }

  UvmMapEntry e = NewEntry(*addr, len, attrs);
  if (vn != nullptr) {
    e.uobj = GetVnodeObject(vn);
    e.uobj_pgoffset = off >> sim::kPageShift;
  } else if (attrs.shared) {
    // Zero-fill: both layers start empty; anons are allocated at fault
    // time (§5.1/§5.2). A shared anonymous mapping needs its amap up front
    // so that fork can share it.
    e.amap = NewAmap(len >> sim::kPageShift);
    e.amap->shared = true;
  }
  UvmMap::iterator ins;
  if (int err = map.InsertEntry(e, &ins); err != sim::kOk) {
    map.Unlock();
    if (e.uobj != nullptr) {
      DetachObject(e.uobj);
    }
    if (e.amap != nullptr) {
      DerefAmap(e.amap);
    }
    return err;
  }
  TryMergeEntry(map, ins);
  map.Unlock();
  return sim::kOk;
}

int Uvm::MapDevice(kern::AddressSpace& as_, sim::Vaddr* addr, kern::DeviceMem& dev,
                   const kern::MapAttrs& attrs) {
  auto& as = static_cast<UvmAddressSpace&>(as_);
  auto it = std::find_if(devices_.begin(), devices_.end(),
                         [&](const auto& udev) { return udev->dev == &dev; });
  if (it == devices_.end()) {
    // Embed a uvm_object around the device's frames — §4's "any kernel
    // abstraction" in action; no separate pager structures exist.
    it = devices_.insert(it, std::make_unique<UvmDevice>(*this, &dev));
  }
  UvmObject& uobj = (*it)->uobj;
  std::uint64_t len = dev.pages.size() * sim::kPageSize;
  UvmMap& map = as.map_;
  map.Lock();
  if (int err = map.ChooseSpace(addr, len, attrs.fixed); err != sim::kOk) {
    map.Unlock();
    return err;
  }
  UvmMapEntry e = NewEntry(*addr, len, attrs);
  e.uobj = &uobj;
  uobj.pgops->Reference(*this, uobj);
  int err = map.InsertEntry(e);
  SIM_ASSERT(err == sim::kOk);
  map.Unlock();
  return sim::kOk;
}

void Uvm::RefClip(UvmMapEntry& e) {
  if (e.uobj != nullptr) {
    e.uobj->pgops->Reference(*this, *e.uobj);
  }
  if (e.amap != nullptr) {
    RefAmap(e.amap);
  }
}

void Uvm::DropEntryRefs(UvmMapEntry& e) {
  if (e.amap != nullptr) {
    DerefAmap(e.amap);
    e.amap = nullptr;
  }
  if (e.uobj != nullptr) {
    DetachObject(e.uobj);
    e.uobj = nullptr;
  }
}

int Uvm::Unmap(kern::AddressSpace& as_, sim::Vaddr addr, std::uint64_t len) {
  sim::ChargeScope scope(machine_, sim::CostCat::kMap, "uvm_unmap");
  auto& as = static_cast<UvmAddressSpace&>(as_);
  len = sim::PageRound(len);
  sim::Vaddr end = addr + len;
  UvmMap& map = as.map_;

  // Phase 1 (map locked): detach the entries from the map and the pmap.
  std::vector<UvmMapEntry> removed;
  map.Lock();
  // amap_unadd: when an entry holds the only reference to its amap, the
  // anons of the removed subrange are freed immediately rather than
  // lingering until every clipped sibling dies. (BSD VM cannot do this —
  // pages of a partially unmapped object stay until the object dies.)
  auto amap_unadd = [&](UvmMapEntry& e) {
    bool partial = e.start < addr || e.end > end;
    if (!partial || e.amap == nullptr || e.amap->ref_count != 1 || e.amap->shared) {
      return;
    }
    sim::Vaddr lo = std::max(e.start, addr);
    sim::Vaddr hi = std::min(e.end, end);
    for (sim::Vaddr va = lo; va < hi; va += sim::kPageSize) {
      std::uint64_t slot = e.SlotOf(va);
      Anon* a = e.amap->Get(slot);
      if (a != nullptr) {
        e.amap->Set(slot, nullptr);
        auto pte = as.pmap_.Extract(va);
        if (pte.has_value() && pte->wired) {
          pm_.Unwire(pm_.PageAt(pte->pfn));
        }
        as.pmap_.Remove(va);
        DerefAnon(a);
      }
    }
  };
  int err = kern::UnmapRange(
      map, as.pmap_, pm_, addr, end, [this](UvmMapEntry& e) { RefClip(e); }, amap_unadd,
      [&](UvmMapEntry& e) { removed.push_back(e); });
  map.Unlock();

  // Phase 2 (map unlocked): drop the object and amap references; this is
  // where lengthy teardown I/O happens, and no one is blocked on the map.
  for (UvmMapEntry& e : removed) {
    DropEntryRefs(e);
  }
  return err;
}

int Uvm::Protect(kern::AddressSpace& as_, sim::Vaddr addr, std::uint64_t len, sim::Prot prot) {
  auto& as = static_cast<UvmAddressSpace&>(as_);
  return kern::ProtectRange(as.map_, as.pmap_, addr, len, prot,
                            [this](UvmMapEntry& e) { RefClip(e); });
}

int Uvm::SetInherit(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len,
                    sim::Inherit inherit) {
  return kern::SetRangeAttr(
      static_cast<UvmAddressSpace&>(as).map_, addr, len, [this](UvmMapEntry& e) { RefClip(e); },
      [inherit](UvmMapEntry& e) { e.inherit = inherit; });
}

int Uvm::SetAdvice(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len,
                   sim::Advice advice) {
  return kern::SetRangeAttr(
      static_cast<UvmAddressSpace&>(as).map_, addr, len, [this](UvmMapEntry& e) { RefClip(e); },
      [advice](UvmMapEntry& e) { e.advice = advice; });
}

int Uvm::Msync(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len) {
  sim::ChargeScope scope(machine_, sim::CostCat::kPageout, "uvm_msync");
  int rc = sim::kOk;
  // On a flush error the pages stay dirty; keep going so the rest of the
  // range is synced, and report the first error to the caller.
  auto put = [&](UvmMapEntry& e, const std::vector<phys::Page*>& run) {
    int err = e.uobj->pgops->Put(*this, *e.uobj, run);
    if (err != sim::kOk && rc == sim::kOk) {
      rc = err;
    }
  };
  kern::ForEachOverlap(
      static_cast<UvmAddressSpace&>(as).map_, addr, len,
      [&](UvmMapEntry& e, sim::Vaddr lo, sim::Vaddr hi) {
        if (e.uobj == nullptr) {
          return;
        }
        // Flush dirty object pages in clustered contiguous runs.
        std::vector<phys::Page*> run;
        std::uint64_t prev = 0;
        for (sim::Vaddr va = lo; va < hi; va += sim::kPageSize) {
          std::uint64_t pgi = e.ObjIndexOf(va);
          phys::Page* p = e.uobj->LookupPage(pgi);
          // Never flush a poisoned page: its bytes are garbage, and writing
          // them back would replace good on-disk data with corruption.
          if (p != nullptr && p->dirty && !p->poisoned) {
            if (!run.empty() && pgi != prev + 1) {
              put(e, run);
              run.clear();
            }
            run.push_back(p);
            prev = pgi;
          }
        }
        if (!run.empty()) {
          put(e, run);
        }
      });
  return rc;
}

int Uvm::MadvFree(kern::AddressSpace& as_, sim::Vaddr addr, std::uint64_t len) {
  auto& as = static_cast<UvmAddressSpace&>(as_);
  kern::ForEachOverlap(as.map_, addr, len, [&](UvmMapEntry& e, sim::Vaddr lo, sim::Vaddr hi) {
    // Only a privately held anonymous layer can be discarded safely: a
    // shared or needs-copy amap is visible to other entries.
    if (e.amap == nullptr || e.amap->ref_count != 1 || e.amap->shared || e.needs_copy) {
      return;
    }
    for (sim::Vaddr va = lo; va < hi; va += sim::kPageSize) {
      std::uint64_t slot = e.SlotOf(va);
      Anon* a = e.amap->Get(slot);
      if (a == nullptr) {
        continue;
      }
      if (a->page != nullptr && a->page->wire_count > 0) {
        continue;  // wired pages cannot be discarded
      }
      e.amap->Set(slot, nullptr);
      as.pmap_.Remove(va);
      DerefAnon(a);
    }
  });
  return sim::kOk;
}

int Uvm::Mincore(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len,
                 std::vector<bool>* out) {
  return kern::MincoreRange(
      static_cast<UvmAddressSpace&>(as).map_, addr, len, out,
      [this](UvmMapEntry& e, sim::Vaddr va) { return ResidentPageAt(e, va) != nullptr; });
}

// ---------------------------------------------------------------------------
// Wiring (§3.2)

int Uvm::Wire(kern::AddressSpace& as_, sim::Vaddr addr, std::uint64_t len) {
  // mlock(2): the one wiring case that must live in the map (§3.2).
  auto& as = static_cast<UvmAddressSpace&>(as_);
  return kern::WireRange(
      as.map_, as.pmap_, pm_, addr, len, [this](UvmMapEntry& e) { RefClip(e); },
      [&](sim::Vaddr va, sim::Access acc) { return FaultIn(as, va, acc, /*map_locked=*/true); });
}

int Uvm::Unwire(kern::AddressSpace& as_, sim::Vaddr addr, std::uint64_t len) {
  auto& as = static_cast<UvmAddressSpace&>(as_);
  return kern::UnwireRange(as.map_, as.pmap_, pm_, addr, len,
                           [this](UvmMapEntry& e) { RefClip(e); });
}

int Uvm::WireTransient(kern::AddressSpace& as_, sim::Vaddr addr, std::uint64_t len,
                       kern::TransientWiring* out) {
  // uvm_vslock(): sysctl/physio buffers are wired by faulting the pages in
  // and raising the frame wire counts. The wired state is recorded in `out`
  // — conceptually on the caller's kernel stack — and the map is never
  // touched, so no fragmentation occurs (§3.2).
  auto& as = static_cast<UvmAddressSpace&>(as_);
  out->va = addr;
  out->len = len;
  sim::Vaddr end = sim::PageRound(addr + len);
  for (sim::Vaddr va = sim::PageTrunc(addr); va < end; va += sim::kPageSize) {
    auto pte = as.pmap_.Extract(va);
    if (!pte.has_value()) {
      int err = Fault(as, va, sim::Access::kWrite);
      if (err != sim::kOk) {
        err = Fault(as, va, sim::Access::kRead);
        if (err != sim::kOk) {
          UnwireTransient(as, *out);
          return err;
        }
      }
      pte = as.pmap_.Extract(va);
      SIM_ASSERT(pte.has_value());
    }
    phys::Page* p = pm_.PageAt(pte->pfn);
    pm_.Wire(p);
    out->pages.push_back(p);
  }
  return sim::kOk;
}

void Uvm::UnwireTransient(kern::AddressSpace& /*as*/, kern::TransientWiring& tw) {
  for (phys::Page* p : tw.pages) {
    pm_.Unwire(p);
  }
  tw.pages.clear();
}

// ---------------------------------------------------------------------------
// Fork (§5.2)

kern::AddressSpace* Uvm::Fork(kern::AddressSpace& parent_) {
  sim::ChargeScope scope(machine_, sim::CostCat::kFork, "uvm_fork");
  auto& parent = static_cast<UvmAddressSpace&>(parent_);
  auto* child = new UvmAddressSpace(*this, /*is_kernel=*/false);
  UvmMap& pmap_map = parent.map_;
  pmap_map.Lock();
  for (UvmMapEntry& e : pmap_map.entries()) {
    switch (e.inherit) {
      case sim::Inherit::kNone:
        break;
      case sim::Inherit::kShared: {
        // Genuine sharing. A needs-copy entry cannot be shared as-is: the
        // amap must be resolved first (amap_cow_now).
        if (e.needs_copy) {
          AmapCopy(e);
        }
        UvmMapEntry ce = e;
        ce.wired_count = 0;
        if (ce.amap == nullptr) {
          // Sharing anonymous memory requires a concrete amap both sides
          // reference.
          EnsureAmap(e);
          ce.amap = e.amap;
          ce.amap_slotoff = e.amap_slotoff;
        }
        e.amap->shared = true;
        RefAmap(ce.amap);
        if (ce.uobj != nullptr) {
          ce.uobj->pgops->Reference(*this, *ce.uobj);
        }
        int err = child->map_.InsertEntry(ce);
        SIM_ASSERT(err == sim::kOk);
        break;
      }
      case sim::Inherit::kCopy: {
        UvmMapEntry ce = e;
        ce.wired_count = 0;
        ce.copy_on_write = true;
        if (e.amap != nullptr || e.copy_on_write) {
          // Defer the amap copy with needs-copy on both sides and
          // write-protect the parent's resident pages (Figure 3).
          e.needs_copy = true;
          ce.needs_copy = true;
          if (e.amap != nullptr) {
            RefAmap(e.amap);
            ce.amap = e.amap;
            ce.amap_slotoff = e.amap_slotoff;
          }
          parent.pmap_.IntersectProtRange(e.start, e.end, sim::Prot::kReadExec);
        } else {
          // Pure shared file mapping inherited copy: the child gets a COW
          // layer over the object; the parent is untouched.
          ce.needs_copy = false;
          ce.amap = nullptr;
        }
        if (ce.uobj != nullptr) {
          ce.uobj->pgops->Reference(*this, *ce.uobj);
        }
        int err = child->map_.InsertEntry(ce);
        SIM_ASSERT(err == sim::kOk);
        break;
      }
    }
  }
  pmap_map.Unlock();
  return child;
}

// ---------------------------------------------------------------------------
// Fault handling (§5.2, §5.4)

int Uvm::AnonPageIn(Anon* anon) {
  sim::ChargeScope scope(machine_, sim::CostCat::kPagein, "uvm_anon_pagein");
  SIM_ASSERT(anon->page == nullptr);
  if (anon->swap_slot == swp::kNoSlot) {
    // A clean zero-fill page that was reclaimed: its contents were all
    // zero, so re-materialize it as a fresh zero page.
    phys::Page* p = AllocPageOrReclaim(phys::OwnerKind::kUvmAnon, anon, 0, /*zero=*/true);
    if (p == nullptr) {
      return sim::kErrNoMem;
    }
    anon->page = p;
    return sim::kOk;
  }
  phys::Page* p = AllocPageOrReclaim(phys::OwnerKind::kUvmAnon, anon, 0, /*zero=*/false);
  if (p == nullptr) {
    return sim::kErrNoMem;
  }
  if (int err = swap_.ReadSlot(anon->swap_slot, pm_.Data(p)); err != sim::kOk) {
    pm_.FreePage(p);  // swap copy is still the truth; a refault retries
    return err;
  }
  p->dirty = false;  // the swap slot stays valid while the page is clean
  anon->page = p;
  return sim::kOk;
}

int Uvm::AnonPageInCluster(UvmMapEntry& e, sim::Vaddr va, Anon* anon) {
  if (!config_.cluster_swap_in || anon->swap_slot == swp::kNoSlot || e.amap == nullptr) {
    return AnonPageIn(anon);
  }
  sim::ChargeScope scope(machine_, sim::CostCat::kPagein, "uvm_anon_pagein_cluster");
  // Collect a forward run of neighbouring anons whose swap slots are
  // contiguous with ours — likely, since the pagedaemon wrote them out as
  // one cluster (§6).
  std::vector<Anon*> run{anon};
  for (std::uint64_t i = 1; run.size() < kVnodeReadCluster; ++i) {
    sim::Vaddr nva = va + i * sim::kPageSize;
    if (nva >= e.end) {
      break;
    }
    Anon* n = e.amap->Get(e.SlotOf(nva));
    if (n == nullptr || n->page != nullptr ||
        n->swap_slot != anon->swap_slot + static_cast<std::int32_t>(i)) {
      break;
    }
    run.push_back(n);
  }
  // Allocate frames for the whole run; on any failure fall back to a
  // single-page read.
  std::vector<phys::Page*> pages;
  for (Anon* a : run) {
    phys::Page* p = AllocPageOrReclaim(phys::OwnerKind::kUvmAnon, a, 0, /*zero=*/false);
    if (p == nullptr) {
      for (phys::Page* q : pages) {
        pm_.FreePage(q);
      }
      return AnonPageIn(anon);
    }
    pages.push_back(p);
  }
  std::vector<swp::PageBytes> datas;
  datas.reserve(pages.size());
  for (phys::Page* p : pages) {
    datas.push_back(pm_.Data(p));
  }
  if (int err = swap_.ReadRun(anon->swap_slot, datas); err != sim::kOk) {
    for (phys::Page* q : pages) {
      pm_.FreePage(q);  // all swap copies remain valid; a refault retries
    }
    return err;
  }
  for (std::size_t i = 0; i < run.size(); ++i) {
    pages[i]->dirty = false;
    run[i]->page = pages[i];
    if (i > 0) {
      pm_.Activate(pages[i]);
    }
  }
  return sim::kOk;
}

void Uvm::TryMergeEntry(UvmMap& map, UvmMap::iterator it) {
  if (!config_.merge_map_entries) {
    return;
  }
  auto mergeable = [](const UvmMapEntry& a, const UvmMapEntry& b) {
    return a.end == b.start && a.amap == nullptr && b.amap == nullptr && a.uobj == nullptr &&
           b.uobj == nullptr && a.prot == b.prot && a.max_prot == b.max_prot &&
           a.inherit == b.inherit && a.advice == b.advice &&
           a.copy_on_write == b.copy_on_write && a.needs_copy == b.needs_copy &&
           a.wired_count == 0 && b.wired_count == 0;
  };
  if (it != map.entries().begin()) {
    auto prev = std::prev(it);
    if (mergeable(*prev, *it)) {
      prev->end = it->end;
      map.EraseEntry(it);
      ++machine_.stats().map_entries_merged;
      it = prev;
    }
  }
  auto next = std::next(it);
  if (next != map.entries().end() && mergeable(*it, *next)) {
    it->end = next->end;
    map.EraseEntry(next);
    ++machine_.stats().map_entries_merged;
  }
}

phys::Page* Uvm::BreakLoan(phys::Page* old_page, phys::OwnerKind kind, void* owner,
                           sim::ObjOffset offset) {
  phys::Page* np = AllocPageOrReclaim(kind, owner, offset, /*zero=*/false);
  if (np == nullptr) {
    return nullptr;
  }
  pm_.CopyPage(old_page, np);
  np->dirty = old_page->dirty;
  // The old page is disowned; it lives on until the last loan is returned.
  mmu_.PageProtect(old_page, sim::Prot::kNone);
  old_page->owner_kind = phys::OwnerKind::kKernel;
  old_page->owner = nullptr;
  return np;
}

void Uvm::OnPoison(phys::Page* p) {
  if (p->loan_count == 0) {
    return;
  }
  // A loaned frame took a memory error while the borrower could still read
  // it. Revoke: tell the borrower to drop its reference, then force the
  // loan closed so the frame is unwired and the ordinary containment paths
  // can reach it. The MMU's own poison hook skipped this frame (it was
  // wired), so strip the owner's mappings here.
  machine_.Charge(sim::CostCat::kPoison, machine_.cost().poison_contain_ns);
  ++machine_.stats().poison_loans_broken;
  if (machine_.tracer().enabled()) {
    machine_.tracer().Instant(sim::CostCat::kPoison, "uvm_loan_revoke", machine_.clock().now(),
                              p->pfn);
  }
  if (loan_revoke_hook_) {
    loan_revoke_hook_(p);
  }
  while (p->loan_count > 0) {
    --p->loan_count;
    pm_.Unwire(p);
  }
  mmu_.PageProtect(p, sim::Prot::kNone);
  if (p->owner_kind == phys::OwnerKind::kKernel && p->owner == nullptr) {
    // Orphaned while loaned (the owner broke the loan or died): nothing
    // will ever discover this frame again, so retire it on the spot.
    pm_.Dequeue(p);
    pm_.FreePage(p);
  }
}

int Uvm::ContainPoisonedAnon(Anon* anon) {
  phys::Page* p = anon->page;
  kern::BeginPoisonContainment(machine_, p);
  if (p->dirty) {
    // The only up-to-date copy died with the frame: late kill.
    return sim::kErrMemPoison;
  }
  // Clean: the swap slot (kept valid while the page is clean) or a fresh
  // zero fill re-materializes the contents. Discard; the caller refetches
  // transparently and the process never notices.
  kern::CountPoisonRefetch(machine_, "uvm_poison_refetch", p->pfn);
  anon->page = nullptr;
  pm_.FreePage(p);  // poisoned: retires instead of rejoining the free list
  return sim::kOk;
}

int Uvm::ContainPoisonedObjPage(phys::Page* p) {
  kern::BeginPoisonContainment(machine_, p);
  if (p->dirty) {
    // An unflushed write died with the frame. Drop the page — the vnode
    // still holds the pre-write contents, so later faults read stale but
    // coherent data — and report the loss; the kernel kills the writer.
    ReleaseObjectPage(p);
    return sim::kErrMemPoison;
  }
  kern::CountPoisonRefetch(machine_, "uvm_poison_refetch", p->pfn);
  ReleaseObjectPage(p);
  return sim::kOk;
}

int Uvm::FaultLocked(UvmAddressSpace& as, UvmMapEntry& e, sim::Vaddr va, bool write) {
  // Captured up front: later steps (COW copies, loan breaks) may replace or
  // remove the existing translation, and the wire transfer needs the
  // original.
  const auto old_pte = as.pmap_.Extract(va);
  // Clear needs-copy on the way to a write (§5.2).
  if (e.needs_copy && write) {
    AmapCopy(e);
  }

  phys::Page* page = nullptr;
  sim::Prot enter_prot = e.prot;

  // --- Upper layer: the amap ---
  Anon* anon = nullptr;
  if (e.amap != nullptr) {
    // The amap layer's own lock (§3): the lookup charge doubles as the
    // acquire cost, so the guard itself is free.
    sim::LockGuard amap_g(amap_lock_);
    machine_.Charge(machine_.cost().amap_lookup_ns);
    anon = e.amap->Get(e.SlotOf(va));
  }
  if (anon != nullptr) {
    if (anon->page != nullptr && anon->page->poisoned) {
      if (int err = ContainPoisonedAnon(anon); err != sim::kOk) {
        return err;
      }
      // Clean page discarded; fall through to the transparent refetch.
    }
    if (anon->page == nullptr) {
      if (int err = AnonPageInCluster(e, va, anon); err != sim::kOk) {
        return err;
      }
    }
    page = anon->page;
    if (write) {
      SIM_ASSERT_MSG(!e.needs_copy, "write fault with needs-copy uncleared");
      if (anon->ref_count > 1) {
        // COW anon copy (Figure 3, third column).
        Anon* na = NewAnon();
        const std::uint32_t src_gen = page->gen;
        na->page = AllocPageOrReclaim(phys::OwnerKind::kUvmAnon, na, 0, /*zero=*/false);
        if (na->page == nullptr) {
          DerefAnon(na);
          return sim::kErrNoMem;
        }
        bool current;
        {
          sim::LockGuard q(pm_.queue_lock());
          current = pm_.FrameIsCurrent(sim::LockToken(pm_.queue_lock()), page,
                                       src_gen);
        }
        if (!current) {
          // The blocking allocation ran the pagedaemon, which swapped the
          // source anon out and freed its frame (the captured pointer now
          // names a recycled frame). Bring the source back in and copy from
          // the fresh page instead.
          ++machine_.stats().fault_stale_page_retries;
          SIM_ASSERT(anon->page == nullptr);
          if (int err = AnonPageIn(anon); err != sim::kOk) {
            DerefAnon(na);
            return err;
          }
          page = anon->page;
        }
        pm_.CopyPage(page, na->page);
        na->page->dirty = true;
        pm_.Activate(na->page);
        e.amap->Set(e.SlotOf(va), na);
        DerefAnon(anon);
        anon = na;
        page = na->page;
      } else if (page->loan_count > 0) {
        phys::Page* np = BreakLoan(page, phys::OwnerKind::kUvmAnon, anon, 0);
        if (np == nullptr) {
          return sim::kErrNoMem;
        }
        anon->page = np;
        page = np;
        // The swap copy no longer matches a page we are about to dirty.
        page->dirty = true;
      } else {
        // Sole reference: write in place — no copy, the §5.3 optimization.
        page->dirty = true;
      }
    } else if (anon->ref_count > 1 || page->loan_count > 0 || e.needs_copy) {
      enter_prot = enter_prot & sim::Prot::kReadExec;
    }
  } else if (e.uobj != nullptr) {
    // --- Lower layer: the backing object ---
    std::uint64_t pgi = e.ObjIndexOf(va);
    {
      // Object-layer lock, dropped before any pagein I/O below (the real
      // UVM marks the page PG_BUSY across I/O rather than holding the
      // object lock).
      sim::LockGuard obj_g(object_lock_);
      page = e.uobj->LookupPage(pgi);
    }
    if (page != nullptr && page->poisoned) {
      if (int err = ContainPoisonedObjPage(page); err != sim::kOk) {
        return err;
      }
      page = nullptr;  // discarded clean page: refetch from the pager below
    }
    if (page == nullptr) {
      std::size_t max_cluster = e.advice == sim::Advice::kRandom ? 1 : kVnodeReadCluster;
      int err = e.uobj->pgops->Get(*this, *e.uobj, pgi, max_cluster, &page);
      if (err != sim::kOk) {
        return err;
      }
    }
    if (write && e.copy_on_write) {
      // Promote the object page into a fresh anon (§5.2).
      SIM_ASSERT_MSG(!e.needs_copy, "write fault with needs-copy uncleared");
      EnsureAmap(e);
      Anon* na = NewAnon();
      std::uint32_t src_gen = page->gen;
      na->page = AllocPageOrReclaim(phys::OwnerKind::kUvmAnon, na, 0, /*zero=*/false);
      if (na->page == nullptr) {
        DerefAnon(na);
        return sim::kErrNoMem;
      }
      // The blocking allocation may have run the pagedaemon, which can page
      // the source frame out from under the captured pointer (activating a
      // recycled frame here is how the old code panicked with "dequeue of
      // free page"). Re-validate under the page-queue lock and re-fetch the
      // source until it stays resident across the check; each retry does
      // real pagein work, so the loop is bounded.
      for (int attempt = 0;; ++attempt) {
        bool current;
        {
          sim::LockGuard q(pm_.queue_lock());
          current = pm_.FrameIsCurrent(sim::LockToken(pm_.queue_lock()), page,
                                       src_gen);
        }
        if (current) {
          break;
        }
        ++machine_.stats().fault_stale_page_retries;
        if (attempt >= 4) {
          DerefAnon(na);
          return sim::kErrNoMem;  // thrashing: let the kernel retry the fault
        }
        page = e.uobj->LookupPage(pgi);
        if (page == nullptr) {
          if (int err = e.uobj->pgops->Get(*this, *e.uobj, pgi, 1, &page);
              err != sim::kOk) {
            DerefAnon(na);
            return err;
          }
        }
        src_gen = page->gen;
      }
      pm_.CopyPage(page, na->page);
      na->page->dirty = true;
      pm_.Activate(page);
      e.amap->Set(e.SlotOf(va), na);
      page = na->page;
    } else if (write) {
      if (page->loan_count > 0) {
        phys::Page* np = BreakLoan(page, phys::OwnerKind::kUvmObject, e.uobj, pgi);
        if (np == nullptr) {
          return sim::kErrNoMem;
        }
        e.uobj->pages.Put(pgi, np);
        page = np;
      }
      page->dirty = true;
    } else if (e.copy_on_write || e.needs_copy) {
      enter_prot = enter_prot & sim::Prot::kReadExec;
    }
  } else {
    // --- Zero-fill: both layers empty (§5.1) ---
    if (e.needs_copy) {
      // Read fault on a needs-copy zero-fill entry: resolve the amap now;
      // it is free (no anons to copy through a zero-fill-only entry chain
      // means the shared amap holds the data — AmapCopy handles both).
      AmapCopy(e);
    }
    EnsureAmap(e);
    Anon* na = NewAnon();
    na->page = AllocPageOrReclaim(phys::OwnerKind::kUvmAnon, na, 0, /*zero=*/true);
    if (na->page == nullptr) {
      DerefAnon(na);
      return sim::kErrNoMem;
    }
    if (write) {
      na->page->dirty = true;
    }
    e.amap->Set(e.SlotOf(va), na);
    page = na->page;
  }

  kern::EnterFaultedPage(as.pmap_, pm_, va, page, enter_prot, e.wired_count > 0, old_pte);
  return sim::kOk;
}

void Uvm::MapNeighbors(UvmAddressSpace& as, UvmMapEntry& e, sim::Vaddr fault_va) {
  if (!config_.enable_lookahead) {
    return;
  }
  int fwd = kLookaheadFwd;
  int back = kLookaheadBack;
  switch (e.advice) {
    case sim::Advice::kNormal:
      break;
    case sim::Advice::kRandom:
      return;  // no locality expected
    case sim::Advice::kSequential:
      fwd = fwd + back;  // all lookahead forward
      back = 0;
      break;
  }
  for (int d = -back; d <= fwd; ++d) {
    if (d == 0) {
      continue;
    }
    sim::Vaddr va = fault_va + static_cast<sim::Vaddr>(static_cast<std::int64_t>(d) *
                                                       static_cast<std::int64_t>(sim::kPageSize));
    if (va < e.start || va >= e.end) {
      continue;
    }
    if (as.pmap_.Extract(va).has_value()) {
      continue;
    }
    // Only *resident* pages are mapped in (§5.4) — never start I/O here.
    phys::Page* page = nullptr;
    if (e.amap != nullptr) {
      Anon* a = e.amap->Get(e.SlotOf(va));
      if (a != nullptr && a->page != nullptr && !a->page->poisoned) {
        page = a->page;
      }
    }
    if (page == nullptr && e.uobj != nullptr) {
      // The amap may hold a COW copy; only fall through when it does not.
      bool amap_covers = e.amap != nullptr && e.amap->Get(e.SlotOf(va)) != nullptr;
      if (!amap_covers) {
        phys::Page* op = e.uobj->LookupPage(e.ObjIndexOf(va));
        if (op != nullptr && !op->poisoned) {
          page = op;
        }
      }
    }
    if (page == nullptr) {
      continue;
    }
    // Mapped read-only: a later write takes a (cheap, resident) fault that
    // runs the COW/dirty bookkeeping.
    as.pmap_.Enter(va, page, e.prot & sim::Prot::kReadExec, e.wired_count > 0);
    page->referenced = true;
    if (page->wire_count == 0) {
      pm_.Activate(page);
    }
    ++machine_.stats().fault_neighbor_maps;
  }
}

int Uvm::Fault(kern::AddressSpace& as, sim::Vaddr va, sim::Access access) {
  return FaultIn(static_cast<UvmAddressSpace&>(as), va, access, /*map_locked=*/false);
}

int Uvm::FaultIn(UvmAddressSpace& as, sim::Vaddr va, sim::Access access, bool map_locked) {
  return kern::HandleFault(machine_, "uvm_fault", as.map_, map_locked, va, access,
                           [&](UvmMapEntry& e, sim::Vaddr fva, bool write) {
                             int err = FaultLocked(as, e, fva, write);
                             if (err == sim::kOk) {
                               MapNeighbors(as, e, fva);
                             }
                             return err;
                           });
}

// ---------------------------------------------------------------------------
// Pagedaemon (§6): aggressive clustering of anonymous pageout.

std::size_t Uvm::PageOutAnonCluster(phys::Page* first) {
  // Gather up to kPageoutCluster dirty anonymous pages from the inactive
  // queue, starting with `first`.
  std::vector<phys::Page*> cluster;
  cluster.push_back(first);
  if (config_.cluster_anon_pageout) {
    phys::Page* p = first->q_next;
    while (p != nullptr && cluster.size() < kPageoutCluster) {
      phys::Page* next = p->q_next;
      if (p->owner_kind == phys::OwnerKind::kUvmAnon && p->dirty && !p->referenced &&
          p->wire_count == 0 && p->loan_count == 0 && !p->poisoned) {
        cluster.push_back(p);
      }
      p = next;
    }
  }
  // Reassign every page's swap location so the cluster is one contiguous
  // run on the swap device — the key §6 trick. Pageout clustering may use
  // the reserved emergency slots: this is the path that frees memory.
  std::int32_t base = swap_.AllocContig(cluster.size(), /*emergency=*/true);
  if (base == swp::kNoSlot && cluster.size() > 1) {
    cluster.resize(1);
    base = swap_.AllocContig(1, /*emergency=*/true);
  }
  if (base == swp::kNoSlot) {
    ++machine_.stats().swap_full_events;
    if (machine_.tracer().enabled()) {
      machine_.tracer().Instant(sim::CostCat::kPageout, "swap_full", machine_.clock().now(),
                                cluster.size());
    }
    return 0;  // swap exhausted
  }
  std::vector<swp::ConstPageBytes> datas;
  datas.reserve(cluster.size());
  for (phys::Page* p : cluster) {
    mmu_.PageProtect(p, sim::Prot::kNone);
    datas.push_back(pm_.Data(p));
  }
  // Write the new run *before* touching any anon's swap state: until the
  // write sticks, each anon's old slot (or resident dirty page) stays the
  // authoritative copy, so a failed pageout can never lose data. Transient
  // errors are retried with doubling virtual-time backoff; permanent slot
  // errors are remapped to a fresh run by the swap layer.
  int err = sim::RetryPageoutIo(machine_, kern::kMaxPageoutRetries,
                                [&] { return swap_.WriteRunRemapping(&base, datas); });
  if (err != sim::kOk) {
    if (base != swp::kNoSlot) {
      swap_.FreeRange(base, cluster.size());
    }
    for (phys::Page* p : cluster) {
      pm_.Activate(p);  // keep dirty and resident; a later pass retries
    }
    return 0;
  }
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    phys::Page* p = cluster[i];
    auto* anon = static_cast<Anon*>(p->owner);
    if (anon->swap_slot != swp::kNoSlot) {
      swap_.FreeSlot(anon->swap_slot);
    }
    anon->swap_slot = base + static_cast<std::int32_t>(i);
    anon->page = nullptr;
    p->dirty = false;
    pm_.FreePage(p);
  }
  return cluster.size();
}

std::size_t Uvm::PageOutObjectRun(phys::Page* first) {
  auto* obj = static_cast<UvmObject*>(first->owner);
  // Cluster with resident dirty neighbours at contiguous object offsets.
  std::vector<phys::Page*> run;
  run.push_back(first);
  if (config_.cluster_vnode_io) {
    std::uint64_t idx = first->offset;
    while (run.size() < kVnodeReadCluster) {
      phys::Page* p = obj->LookupPage(idx + 1);
      if (p == nullptr || !p->dirty || p->wire_count > 0 || p->loan_count > 0 || p->poisoned) {
        break;
      }
      run.push_back(p);
      ++idx;
    }
  }
  for (phys::Page* p : run) {
    mmu_.PageProtect(p, sim::Prot::kNone);
  }
  int err = sim::RetryPageoutIo(machine_, kern::kMaxPageoutRetries,
                                [&] { return obj->pgops->Put(*this, *obj, run); });
  if (err != sim::kOk) {
    for (phys::Page* p : run) {
      pm_.Activate(p);  // pages stay dirty on the object; retried later
    }
    return 0;
  }
  for (phys::Page* p : run) {
    obj->pages.erase(p->offset);
    pm_.FreePage(p);
  }
  return run.size();
}

std::size_t Uvm::PageDaemon(std::size_t target_free) {
  sim::ChargeScope scope(machine_, sim::CostCat::kPageout, "uvm_pagedaemon");
  return phys::ScanQueues(
      pm_, target_free, [this](phys::Page* p) { ContainQueuedPoison(p); },
      [this](phys::Page* p) { return ReclaimPage(p); });
}

void Uvm::ContainQueuedPoison(phys::Page* p) {
  // Clean pages are discarded (retired; a refault refetches). Dirty pages
  // are parked off-queue so a later fault discovers the loss and kills the
  // toucher — the daemon never pages out poisoned data.
  if (p->dirty || p->owner_kind == phys::OwnerKind::kNone ||
      p->owner_kind == phys::OwnerKind::kKernel) {
    pm_.Dequeue(p);
    return;
  }
  ++machine_.stats().poison_discards;
  if (p->owner_kind == phys::OwnerKind::kUvmAnon) {
    static_cast<Anon*>(p->owner)->page = nullptr;
    mmu_.PageProtect(p, sim::Prot::kNone);
    pm_.FreePage(p);  // retires; the frame never reaches the free list
  } else {
    ReleaseObjectPage(p);
  }
}

std::size_t Uvm::ReclaimPage(phys::Page* p) {
  switch (p->owner_kind) {
    case phys::OwnerKind::kUvmAnon:
      if (p->dirty) {
        std::size_t n = PageOutAnonCluster(p);
        if (n == 0) {
          pm_.Activate(p);  // swap full or I/O error; retry later
        }
        return n;
      }
      // A clean anon page either has a valid swap copy or was never
      // written (zero-fill); both refault correctly.
      mmu_.PageProtect(p, sim::Prot::kNone);
      static_cast<Anon*>(p->owner)->page = nullptr;
      pm_.FreePage(p);
      return 1;
    case phys::OwnerKind::kUvmObject:
      if (p->dirty) {
        return PageOutObjectRun(p);
      }
      ReleaseObjectPage(p);
      return 1;
    default:
      pm_.Dequeue(p);
      return 0;
  }
}

// ---------------------------------------------------------------------------
// Data movement (§7)

phys::Page* Uvm::ResidentPageAt(UvmMapEntry& e, sim::Vaddr va) const {
  if (e.amap != nullptr) {
    Anon* a = e.amap->Get(e.SlotOf(va));
    if (a != nullptr) {
      return a->page;
    }
  }
  if (e.uobj != nullptr) {
    return e.uobj->LookupPage(e.ObjIndexOf(va));
  }
  return nullptr;
}

int Uvm::Loan(kern::AddressSpace& as_, sim::Vaddr va, std::size_t npages,
              std::vector<phys::Page*>* out) {
  sim::ChargeScope scope(machine_, sim::CostCat::kLoan, "uvm_loan");
  auto& as = static_cast<UvmAddressSpace&>(as_);
  va = sim::PageTrunc(va);
  std::size_t done = 0;
  for (std::size_t i = 0; i < npages; ++i) {
    sim::Vaddr pva = va + i * sim::kPageSize;
    UvmMap& map = as.map_;
    map.Lock();
    auto it = map.LookupEntry(pva);
    if (it == map.entries().end()) {
      map.Unlock();
      break;
    }
    phys::Page* page = ResidentPageAt(*it, pva);
    if (page == nullptr) {
      map.Unlock();
      if (Fault(as, pva, sim::Access::kRead) != sim::kOk) {
        break;
      }
      map.Lock();
      it = map.LookupEntry(pva);
      SIM_ASSERT(it != map.entries().end());
      page = ResidentPageAt(*it, pva);
      SIM_ASSERT(page != nullptr);
    }
    // Loan the page to the kernel: wired, read-only everywhere, COW
    // preserved by write-protecting the owner's mappings so a later write
    // breaks the loan instead of mutating in-flight data.
    ++page->loan_count;
    pm_.Wire(page);
    mmu_.PageProtect(page, sim::Prot::kReadExec);
    machine_.Charge(sim::CostCat::kLoan, machine_.cost().loan_page_ns);
    out->push_back(page);
    ++done;
    map.Unlock();
  }
  if (done != npages) {
    // Roll back the partial loan.
    Unloan(std::span<phys::Page*>(out->data() + out->size() - done, done));
    out->resize(out->size() - done);
    return sim::kErrFault;
  }
  return sim::kOk;
}

void Uvm::Unloan(std::span<phys::Page*> pages) {
  for (phys::Page* p : pages) {
    SIM_ASSERT(p->loan_count > 0);
    --p->loan_count;
    pm_.Unwire(p);
    if (p->loan_count == 0 && p->owner_kind == phys::OwnerKind::kKernel &&
        p->owner == nullptr) {
      // Orphaned while loaned (the owner broke the loan or died).
      pm_.Dequeue(p);
      pm_.FreePage(p);
    }
  }
}

int Uvm::Transfer(kern::AddressSpace& dst_, sim::Vaddr* addr, std::span<phys::Page*> pages) {
  sim::ChargeScope scope(machine_, sim::CostCat::kLoan, "uvm_transfer");
  auto& dst = static_cast<UvmAddressSpace&>(dst_);
  std::uint64_t len = pages.size() * sim::kPageSize;
  UvmMap& map = dst.map_;
  map.Lock();
  if (int err = map.FindSpace(addr, len); err != sim::kOk) {
    map.Unlock();
    return err;
  }
  UvmMapEntry e;
  e.start = *addr;
  e.end = *addr + len;
  e.prot = sim::Prot::kReadWrite;
  e.copy_on_write = true;
  e.inherit = sim::Inherit::kCopy;
  e.amap = NewAmap(pages.size());
  for (std::size_t i = 0; i < pages.size(); ++i) {
    phys::Page* p = pages[i];
    Anon* a = nullptr;
    if (p->owner_kind == phys::OwnerKind::kUvmAnon) {
      // A page loaned from another address space: share its anon
      // copy-on-write — no data copy (§7).
      a = static_cast<Anon*>(p->owner);
      RefAnon(a);
    } else if (p->owner_kind == phys::OwnerKind::kUvmObject) {
      // A loaned file/device page: the object keeps its page; the receiver
      // gets an anon holding a copy (one copy — still half the cost of the
      // classic copyin/copyout path).
      a = NewAnon();
      a->page = AllocPageOrReclaim(phys::OwnerKind::kUvmAnon, a, 0, /*zero=*/false);
      if (a->page == nullptr) {
        DerefAnon(a);
        DerefAmap(e.amap);
        map.Unlock();
        return sim::kErrNoMem;
      }
      pm_.CopyPage(p, a->page);
      a->page->dirty = true;
      pm_.Activate(a->page);
    } else {
      // A kernel-produced page becomes anonymous memory, indistinguishable
      // from any other anon (§7).
      SIM_ASSERT(p->owner_kind == phys::OwnerKind::kKernel);
      a = NewAnon();
      a->page = p;
      p->owner_kind = phys::OwnerKind::kUvmAnon;
      p->owner = a;
      p->offset = 0;
      p->dirty = true;
      if (p->wire_count == 0) {
        pm_.Activate(p);
      }
    }
    e.amap->Set(i, a);
  }
  int err = map.InsertEntry(e);
  SIM_ASSERT(err == sim::kOk);
  map.Unlock();
  return sim::kOk;
}

int Uvm::Extract(kern::AddressSpace& src_, sim::Vaddr src_va, std::uint64_t len,
                 kern::AddressSpace& dst_, sim::Vaddr* dst_va, kern::ExtractMode mode) {
  sim::ChargeScope scope(machine_, sim::CostCat::kLoan, "uvm_extract");
  auto& src = static_cast<UvmAddressSpace&>(src_);
  auto& dst = static_cast<UvmAddressSpace&>(dst_);
  len = sim::PageRound(len);
  sim::Vaddr src_end = src_va + len;

  UvmMap& smap = src.map_;
  UvmMap& dmap = dst.map_;
  smap.Lock();
  UvmMap::ClipReservation clipres;
  if (int err = clipres.Acquire(smap, src_va, src_end); err != sim::kOk) {
    smap.Unlock();
    return err;
  }
  // Verify the whole source range is mapped before touching anything.
  for (sim::Vaddr va = src_va; va < src_end;) {
    auto it = smap.LookupEntry(va);
    if (it == smap.entries().end()) {
      smap.Unlock();
      return sim::kErrFault;
    }
    va = it->end;
  }
  dmap.Lock();
  if (int err = dmap.FindSpace(dst_va, len); err != sim::kOk) {
    dmap.Unlock();
    smap.Unlock();
    return err;
  }

  auto it = smap.LookupEntry(src_va);
  while (it != smap.entries().end() && it->start < src_end) {
    it = smap.ClipTo(it, src_va, src_end, [this](UvmMapEntry& e) { RefClip(e); });
    UvmMapEntry ce = *it;
    ce.wired_count = 0;
    sim::Vaddr rel = it->start - src_va;
    ce.start = *dst_va + rel;
    ce.end = ce.start + (it->end - it->start);
    switch (mode) {
      case kern::ExtractMode::kShare:
        if (it->needs_copy) {
          AmapCopy(*it);
          ce.amap = it->amap;
          ce.amap_slotoff = it->amap_slotoff;
          ce.needs_copy = false;
        }
        if (ce.amap == nullptr) {
          EnsureAmap(*it);
          ce.amap = it->amap;
          ce.amap_slotoff = it->amap_slotoff;
        }
        it->amap->shared = true;
        RefAmap(ce.amap);
        if (ce.uobj != nullptr) {
          ce.uobj->pgops->Reference(*this, *ce.uobj);
        }
        ++it;
        break;
      case kern::ExtractMode::kCopy:
        ce.copy_on_write = true;
        if (it->amap != nullptr || it->copy_on_write) {
          it->needs_copy = true;
          ce.needs_copy = true;
          if (it->amap != nullptr) {
            RefAmap(it->amap);
          }
          src.pmap_.IntersectProtRange(it->start, it->end, sim::Prot::kReadExec);
        } else {
          ce.needs_copy = false;
        }
        if (ce.uobj != nullptr) {
          ce.uobj->pgops->Reference(*this, *ce.uobj);
        }
        ++it;
        break;
      case kern::ExtractMode::kMove: {
        // The entry changes address space wholesale; references move with
        // it. Wired pages are unwired on the way out.
        if (it->wired_count > 0) {
          for (sim::Vaddr va = it->start; va < it->end; va += sim::kPageSize) {
            auto pte = src.pmap_.Extract(va);
            if (pte.has_value() && pte->wired) {
              pm_.Unwire(pm_.PageAt(pte->pfn));
            }
          }
        }
        src.pmap_.RemoveRange(it->start, it->end);
        auto victim = it++;
        smap.EraseEntry(victim);
        break;
      }
    }
    int err = dmap.InsertEntry(ce);
    SIM_ASSERT(err == sim::kOk);
  }
  dmap.Unlock();
  smap.Unlock();
  return sim::kOk;
}

// ---------------------------------------------------------------------------
// Introspection

std::size_t Uvm::AnonResidentPages(kern::AddressSpace& as_) const {
  auto& as = static_cast<UvmAddressSpace&>(as_);
  std::size_t n = 0;
  for (const UvmMapEntry& e : as.map_.entries()) {
    if (e.amap == nullptr) {
      continue;
    }
    for (sim::Vaddr va = e.start; va < e.end; va += sim::kPageSize) {
      Anon* a = e.amap->Get(e.SlotOf(va));
      if (a != nullptr && a->page != nullptr) {
        ++n;
      }
    }
  }
  return n;
}

void Uvm::AuditState(sim::Auditor& auditor) const {
  // Count amap->anon references; at a quiescent point every anon reference
  // is held by an amap, so the per-anon tallies must equal ref_count.
  std::unordered_map<const Anon*, int> amap_refs;
  SIM_ORDERED_OK("read-only audit walk; tallies are order-independent");
  for (const Amap* am : all_amaps_) {
    if (am->ref_count <= 0) {
      auditor.Fail("live amap with non-positive ref_count");
    }
    // One occurrence = one anon reference: sharing an amap (ref_count > 1)
    // shares its references, it does not multiply them (§5.2 — the child
    // takes its own references only at AmapCopy time).
    am->impl->ForEach([&](std::uint64_t, Anon* a) {
      if (!all_anons_.contains(a)) {
        auditor.Fail("amap references an anon not in the live set");
        return;
      }
      amap_refs[a] += 1;
    });
  }
  std::unordered_set<std::int32_t> seen_slots;
  SIM_ORDERED_OK("read-only audit walk; checks are per-anon");
  for (const Anon* a : all_anons_) {
    if (a->ref_count <= 0) {
      auditor.Fail("live anon with non-positive ref_count");
    }
    auto it = amap_refs.find(a);
    int held = it == amap_refs.end() ? 0 : it->second;
    if (held != a->ref_count) {
      auditor.Fail("anon ref_count disagrees with the amap references holding it");
    }
    if (a->page != nullptr) {
      if (a->page->owner_kind != phys::OwnerKind::kUvmAnon || a->page->owner != a) {
        auditor.Fail("anon's resident page does not point back at the anon");
      }
      if (a->page->poisoned && a->page->loan_count > 0) {
        auditor.Fail("poisoned anon page still loaned out");
      }
    }
    if (a->swap_slot != swp::kNoSlot) {
      if (!swap_.IsUsed(a->swap_slot)) {
        auditor.Fail("anon swap slot is not allocated on the device");
      }
      if (!seen_slots.insert(a->swap_slot).second) {
        auditor.Fail("two anons own the same swap slot");
      }
    }
  }
  // The converse: every allocated slot is an anon's or the balloon's.
  if (seen_slots.size() + swap_.balloon_slots() != swap_.used_slots()) {
    auditor.Fail("swap slots in use are not all claimed by anons or the balloon (leaked slot)");
  }
  SIM_ORDERED_OK("read-only audit walk; checks are per-page");
  for (vfs::Vnode* vn : attached_vnodes_) {
    const auto* uvn = static_cast<const UvmVnode*>(vn->attachment());
    if (uvn == nullptr) {
      auditor.Fail("attached vnode lost its UVM attachment");
      continue;
    }
    for (const auto& [pgi, page] : uvn->uobj.pages) {
      if (page->owner_kind != phys::OwnerKind::kUvmObject ||
          page->owner != &uvn->uobj || page->offset != pgi) {
        auditor.Fail("uvm object page does not point back at its object/offset");
      }
    }
  }
}

}  // namespace uvm
