#include "src/core/uvm_object.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/core/uvm.h"
#include "src/sim/assert.h"
#include "src/sim/retry.h"

namespace uvm {

UvmVnode::UvmVnode(Uvm& vm_in, vfs::Vnode* vn_in)
    : uobj(VnodePagerOps()), vn(vn_in), vm(vm_in) {
  uobj.impl = this;
  uobj.pages.BindStats(&vm.machine().stats());
  uobj.pages.BindPool(&vm.pagestore_pool());
}

namespace {

// Write a run of resident pages with ascending contiguous indices back to
// the vnode in a single I/O operation. On I/O error the pages stay dirty so
// a later flush can retry.
int FlushRun(Uvm& vm, UvmVnode& uvn, const std::vector<phys::Page*>& run) {
  if (run.empty()) {
    return sim::kOk;
  }
  std::vector<std::byte> buf(run.size() * sim::kPageSize);
  for (std::size_t i = 0; i < run.size(); ++i) {
    auto src = vm.phys().Data(run[i]);
    std::memcpy(&buf[i * sim::kPageSize], src.data(), sim::kPageSize);
  }
  if (int err = uvn.vn->WritePages(run.front()->offset * sim::kPageSize, run.size(), buf);
      err != sim::kOk) {
    return err;
  }
  for (phys::Page* p : run) {
    p->dirty = false;
  }
  return sim::kOk;
}

class VnodeOps : public PagerOps {
 public:
  int Get(Uvm& vm, UvmObject& obj, std::uint64_t pgindex, std::size_t max_cluster,
          phys::Page** out) override {
    sim::ChargeScope scope(vm.machine(), sim::CostCat::kPagein, "uvm_vnode_get");
    auto& uvn = *static_cast<UvmVnode*>(obj.impl);
    std::uint64_t file_pages = uvn.vn->size_pages();
    if (pgindex >= file_pages) {
      // Mapping extends past EOF: hand back a zero page owned by the
      // object (clean; refault re-zeroes if reclaimed).
      phys::Page* p =
          vm.AllocPageOrReclaim(phys::OwnerKind::kUvmObject, &obj, pgindex, /*zero=*/true);
      if (p == nullptr) {
        return sim::kErrNoMem;
      }
      obj.pages.emplace(pgindex, p);
      *out = p;
      return sim::kOk;
    }
    // UVM pagers allocate pages themselves and may read a multi-page
    // cluster in one I/O operation (§6).
    std::uint64_t cluster =
        vm.config().cluster_vnode_io ? std::min<std::uint64_t>(vm.config().vnode_read_cluster,
                                                               max_cluster)
                                     : 1;
    std::uint64_t n = 0;
    while (n < cluster && pgindex + n < file_pages && !obj.pages.contains(pgindex + n)) {
      ++n;
    }
    SIM_ASSERT(n >= 1);
    std::vector<std::byte> buf(n * sim::kPageSize);
    if (int err = uvn.vn->ReadPages(pgindex * sim::kPageSize, n, buf); err != sim::kOk) {
      return err;  // no pages were allocated yet; the fault surfaces the error
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      phys::Page* p =
          vm.AllocPageOrReclaim(phys::OwnerKind::kUvmObject, &obj, pgindex + i, /*zero=*/false);
      if (p == nullptr) {
        if (i == 0) {
          return sim::kErrNoMem;
        }
        break;  // partial cluster is fine; the first page is what matters
      }
      auto dst = vm.phys().Data(p);
      std::memcpy(dst.data(), &buf[i * sim::kPageSize], sim::kPageSize);
      p->dirty = false;
      obj.pages.emplace(pgindex + i, p);
      vm.phys().Activate(p);
    }
    *out = obj.LookupPage(pgindex);
    if (*out == nullptr) {
      // Extreme pressure: allocating a later cluster page drove the
      // pagedaemon into reclaiming the (clean, already-activated) first
      // page. Surface a typed error so the fault path backs off and
      // retries instead of panicking.
      return sim::kErrNoMem;
    }
    return sim::kOk;
  }

  int Put(Uvm& vm, UvmObject& obj, std::span<phys::Page* const> pages) override {
    auto& uvn = *static_cast<UvmVnode*>(obj.impl);
    return FlushRun(vm, uvn, std::vector<phys::Page*>(pages.begin(), pages.end()));
  }

  bool HasBacking(UvmObject& obj, std::uint64_t pgindex) const override {
    auto& uvn = *static_cast<UvmVnode*>(obj.impl);
    return pgindex < uvn.vn->size_pages();
  }

  void Reference(Uvm& vm, UvmObject& obj) override {
    auto& uvn = *static_cast<UvmVnode*>(obj.impl);
    if (obj.ref_count == 0) {
      // UVM holds a single vnode reference while the object is mapped;
      // unreferenced objects are cached by the vnode layer alone (§4).
      uvn.vm.VnodeCacheRef(uvn.vn);
    }
    ++obj.ref_count;
    (void)vm;
  }

  void Detach(Uvm& vm, UvmObject& obj) override {
    auto& uvn = *static_cast<UvmVnode*>(obj.impl);
    SIM_ASSERT(obj.ref_count > 0);
    --obj.ref_count;
    if (obj.ref_count == 0) {
      // Pages stay on the object; lifetime is now the vnode cache's call.
      uvn.vm.VnodeCacheUnref(uvn.vn);
    }
    (void)vm;
  }
};

class DeviceOps : public PagerOps {
 public:
  int Get(Uvm& vm, UvmObject& obj, std::uint64_t pgindex, std::size_t max_cluster,
          phys::Page** out) override {
    (void)vm;
    (void)max_cluster;
    // The pager chooses the page: always the device's own frame, no
    // allocation, no I/O (§6).
    phys::Page* p = obj.LookupPage(pgindex);
    if (p == nullptr) {
      return sim::kErrFault;  // beyond the device
    }
    *out = p;
    return sim::kOk;
  }

  int Put(Uvm& vm, UvmObject& obj, std::span<phys::Page* const> pages) override {
    // Device memory has no backing store; writes take effect in place.
    (void)vm;
    (void)obj;
    for (phys::Page* p : pages) {
      p->dirty = false;
    }
    return sim::kOk;
  }

  bool HasBacking(UvmObject& obj, std::uint64_t pgindex) const override {
    return obj.pages.contains(pgindex);
  }

  void Reference(Uvm& vm, UvmObject& obj) override {
    (void)vm;
    ++obj.ref_count;
  }

  void Detach(Uvm& vm, UvmObject& obj) override {
    (void)vm;
    SIM_ASSERT(obj.ref_count > 0);
    --obj.ref_count;
    // The device persists at refcount zero; its frames stay wired.
  }
};

}  // namespace

UvmDevice::UvmDevice(Uvm& vm_in, kern::DeviceMem* dev_in)
    : uobj(DevicePagerOps()), dev(dev_in), vm(vm_in) {
  uobj.impl = this;
  uobj.pages.BindStats(&vm.machine().stats());
  uobj.pages.BindPool(&vm.pagestore_pool());
  for (std::size_t i = 0; i < dev->pages.size(); ++i) {
    phys::Page* p = dev->pages[i];
    p->owner_kind = phys::OwnerKind::kUvmObject;
    p->owner = &uobj;
    p->offset = i;
    uobj.pages.emplace(i, p);
  }
  dev->adopted_by_vm = true;
}

PagerOps* VnodePagerOps() {
  static VnodeOps ops;
  return &ops;
}

PagerOps* DevicePagerOps() {
  static DeviceOps ops;
  return &ops;
}

void UvmVnode::Terminate(vfs::Vnode& vnode) {
  SIM_ASSERT_MSG(uobj.ref_count == 0, "recycling a mapped vnode");
  vm.ForgetVnode(&vnode);
  // Flush dirty pages in clustered contiguous runs, then drop everything.
  // Terminate cannot report failure to anyone, so flushes retry with the
  // shared VmTuning budget and backoff, then give up counting the dropped
  // pages (the transient-fault case recovers; a permanently dead filesystem
  // disk drops the writes, like a real kernel).
  sim::ChargeScope scope(vm.machine(), sim::CostCat::kPageout, "uvm_terminate_flush");
  auto flush = [this](const std::vector<phys::Page*>& r) {
    if (r.empty()) {
      return;
    }
    int err = sim::RetryPageoutIo(vm.machine(), vm.config().tuning.max_pageout_retries,
                                  [&] { return FlushRun(vm, *this, r); });
    if (err == sim::kErrIO) {
      vm.machine().stats().pageout_drops += r.size();
      if (vm.machine().tracer().enabled()) {
        vm.machine().tracer().Instant(sim::CostCat::kPageout, "uvm_pageout_drop",
                                      vm.machine().clock().now(), r.size());
      }
    }
  };
  std::vector<phys::Page*> run;
  std::uint64_t prev = 0;
  for (auto& [pgi, page] : uobj.pages) {
    // A poisoned page's bytes are garbage: dropping the write is the only
    // correct outcome (the on-disk copy stays pre-write but coherent).
    if (page->dirty && !page->poisoned) {
      if (!run.empty() && pgi != prev + 1) {
        flush(run);
        run.clear();
      }
      run.push_back(page);
      prev = pgi;
    }
  }
  flush(run);
  while (!uobj.pages.empty()) {
    phys::Page* p = uobj.pages.begin()->second;
    vm.ReleaseObjectPage(p);
  }
}

}  // namespace uvm
