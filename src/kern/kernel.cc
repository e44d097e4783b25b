#include "src/kern/kernel.h"

#include <algorithm>
#include <cstring>

#include "src/phys/pagedaemon.h"
#include "src/sim/annotations.h"
#include "src/sim/assert.h"
#include "src/sim/retry.h"
#include "src/sim/scheduler.h"

namespace kern {

Kernel::Kernel(sim::Machine& machine, phys::PhysMem& pm, vfs::Filesystem& fs,
               swp::SwapDevice& swap, VmSystem& vm)
    : machine_(machine), pm_(pm), fs_(fs), swap_(swap), vm_(vm) {}

Kernel::~Kernel() {
  while (!procs_.empty()) {
    Proc* p = procs_.begin()->second.get();
    if (p->alive) {
      Exit(p);
    } else {
      procs_.erase(procs_.begin());  // zombie shell from the OOM killer
    }
  }
  if (shm_keeper_ != nullptr) {
    vm_.DestroyAddressSpace(shm_keeper_);
    shm_keeper_ = nullptr;
  }
  // Devices that were never mapped still own their frames; adopted ones
  // are torn down by the VM system.
  for (auto& [name, dev] : devices_) {
    if (!dev->adopted_by_vm) {
      for (phys::Page* p : dev->pages) {
        pm_.Unwire(p);
        pm_.Dequeue(p);
        pm_.FreePage(p);
      }
      dev->pages.clear();
    }
  }
}

// ---------------------------------------------------------------------------
// Processes

Proc* Kernel::Spawn(std::size_t cpu) {
  sim::CpuScope on_cpu(machine_.scheduler(), cpu);
  machine_.PollAudit();
  return NewProc(cpu, vm_.CreateAddressSpace(), /*shares_as=*/false);
}

Proc* Kernel::Fork(Proc* parent) {
  sim::CpuScope on_cpu(machine_.scheduler(), parent->cpu);
  if (!parent->alive) {
    return nullptr;  // the parent's address space is already gone
  }
  machine_.PollAudit();
  return NewProc(parent->cpu, vm_.Fork(*parent->as), /*shares_as=*/false);
}

Proc* Kernel::Vfork(Proc* parent) {
  sim::CpuScope on_cpu(machine_.scheduler(), parent->cpu);
  if (!parent->alive) {
    return nullptr;
  }
  machine_.PollAudit();
  return NewProc(parent->cpu, parent->as, /*shares_as=*/true);  // borrowed, not copied
}

Proc* Kernel::NewProc(std::size_t cpu, AddressSpace* as, bool shares_as) {
  auto proc = std::make_unique<Proc>();
  proc->pid = next_pid_++;
  proc->cpu = cpu;
  proc->as = as;
  proc->shares_as = shares_as;
  if (AllocProcResources(&proc->kres) != sim::kOk) {
    if (!shares_as) {
      vm_.DestroyAddressSpace(as);
    }
    return nullptr;  // pool exhausted; the caller decides how to degrade
  }
  Proc* raw = proc.get();
  procs_.emplace(raw->pid, std::move(proc));
  return raw;
}

int Kernel::AllocProcResources(ProcKernelResources* res) {
  for (std::size_t npages : {kUPages, kKStackPages}) {
    int err = vm_.MapProcRange(npages, res);
    for (std::size_t i = 0; err == sim::kOk && i < npages; ++i) {
      phys::Page* p =
          phys::AllocOrReclaim(pm_, kMaxAllocRetries, phys::OwnerKind::kKernel, &vm_, 0,
                               /*zero=*/true, [this] { vm_.PageDaemon(pm_.free_target()); });
      if (p == nullptr) {
        err = sim::kErrNoMem;
        break;
      }
      pm_.Wire(p);
      res->wired_pages.push_back(p);
    }
    if (err != sim::kOk) {
      FreeProcResources(*res);
      return err;
    }
  }
  return sim::kOk;
}

void Kernel::FreeProcResources(ProcKernelResources& res) {
  vm_.UnmapProcRanges(res);
  for (phys::Page* p : res.wired_pages) {
    pm_.Unwire(p);
    pm_.Dequeue(p);
    pm_.FreePage(p);
  }
  res.wired_pages.clear();
}

void Kernel::SetUareaWired(Proc* p, bool wired) {
  SIM_ASSERT(p->swapped_out == wired);
  vm_.SetProcRangesWired(p->kres, wired);
  for (phys::Page* pg : p->kres.wired_pages) {
    if (wired) {
      pm_.Wire(pg);
    } else {
      pm_.Unwire(pg);
    }
  }
  p->swapped_out = !wired;
}

void Kernel::SwapOutProc(Proc* p) {
  sim::CpuScope on_cpu(machine_.scheduler(), p->cpu);
  SetUareaWired(p, false);
}

void Kernel::SwapInProc(Proc* p) {
  sim::CpuScope on_cpu(machine_.scheduler(), p->cpu);
  SetUareaWired(p, true);
}

void Kernel::TearDown(Proc* p) {
  for (TransientWiring& tw : p->kernel_stack_wirings) {
    vm_.UnwireTransient(*p->as, tw);
  }
  p->kernel_stack_wirings.clear();
  if (!p->shares_as) {
    vm_.DestroyAddressSpace(p->as);
  }
  p->as = nullptr;
  if (p->swapped_out) {
    SetUareaWired(p, true);
  }
  FreeProcResources(p->kres);
  p->alive = false;
}

void Kernel::Exit(Proc* p) {
  sim::CpuScope on_cpu(machine_.scheduler(), p->cpu);
  machine_.PollAudit();
  if (p->alive) {
    TearDown(p);
  }
  procs_.erase(p->pid);  // for a killed process, reaps its zombie shell
}

// ---------------------------------------------------------------------------
// Mapping syscalls

int Kernel::Mmap(Proc* p, sim::Vaddr* addr, std::uint64_t len, const std::string& file,
                 sim::ObjOffset off, const MapAttrs& attrs) {
  sim::CpuScope on_cpu(machine_.scheduler(), p->cpu);
  if (!p->alive) {
    return p->kill_err;
  }
  machine_.PollAudit();
  vfs::Vnode* vn = fs_.Open(file);
  if (vn == nullptr) {
    return sim::kErrNoEnt;
  }
  int err = vm_.Map(*p->as, addr, len, vn, off, attrs);
  // mmap keeps its own reference through the VM object; the open reference
  // is dropped as if the file descriptor were closed.
  fs_.Close(vn);
  return err;
}

int Kernel::MmapAnon(Proc* p, sim::Vaddr* addr, std::uint64_t len, const MapAttrs& attrs) {
  sim::CpuScope on_cpu(machine_.scheduler(), p->cpu);
  if (!p->alive) {
    return p->kill_err;
  }
  machine_.PollAudit();
  return vm_.Map(*p->as, addr, len, nullptr, 0, attrs);
}

int Kernel::Munmap(Proc* p, sim::Vaddr addr, std::uint64_t len) {
  sim::CpuScope on_cpu(machine_.scheduler(), p->cpu);
  if (!p->alive) {
    return p->kill_err;
  }
  machine_.PollAudit();
  return vm_.Unmap(*p->as, addr, len);
}

int Kernel::Mprotect(Proc* p, sim::Vaddr addr, std::uint64_t len, sim::Prot prot) {
  sim::CpuScope on_cpu(machine_.scheduler(), p->cpu);
  if (!p->alive) {
    return p->kill_err;
  }
  return vm_.Protect(*p->as, addr, len, prot);
}

int Kernel::Minherit(Proc* p, sim::Vaddr addr, std::uint64_t len, sim::Inherit inherit) {
  sim::CpuScope on_cpu(machine_.scheduler(), p->cpu);
  if (!p->alive) {
    return p->kill_err;
  }
  return vm_.SetInherit(*p->as, addr, len, inherit);
}

int Kernel::Madvise(Proc* p, sim::Vaddr addr, std::uint64_t len, sim::Advice advice) {
  sim::CpuScope on_cpu(machine_.scheduler(), p->cpu);
  if (!p->alive) {
    return p->kill_err;
  }
  return vm_.SetAdvice(*p->as, addr, len, advice);
}

int Kernel::Msync(Proc* p, sim::Vaddr addr, std::uint64_t len) {
  sim::CpuScope on_cpu(machine_.scheduler(), p->cpu);
  if (!p->alive) {
    return p->kill_err;
  }
  machine_.PollAudit();
  return vm_.Msync(*p->as, addr, len);
}

int Kernel::Mlock(Proc* p, sim::Vaddr addr, std::uint64_t len) {
  sim::CpuScope on_cpu(machine_.scheduler(), p->cpu);
  if (!p->alive) {
    return p->kill_err;
  }
  return vm_.Wire(*p->as, addr, len);
}

int Kernel::Munlock(Proc* p, sim::Vaddr addr, std::uint64_t len) {
  sim::CpuScope on_cpu(machine_.scheduler(), p->cpu);
  if (!p->alive) {
    return p->kill_err;
  }
  return vm_.Unwire(*p->as, addr, len);
}

int Kernel::MadvFree(Proc* p, sim::Vaddr addr, std::uint64_t len) {
  sim::CpuScope on_cpu(machine_.scheduler(), p->cpu);
  if (!p->alive) {
    return p->kill_err;
  }
  return vm_.MadvFree(*p->as, addr, len);
}

int Kernel::Mincore(Proc* p, sim::Vaddr addr, std::uint64_t len, std::vector<bool>* out) {
  sim::CpuScope on_cpu(machine_.scheduler(), p->cpu);
  if (!p->alive) {
    return p->kill_err;
  }
  return vm_.Mincore(*p->as, addr, len, out);
}

// ---------------------------------------------------------------------------
// User memory access

int Kernel::Access(Proc* p, sim::Vaddr va, std::uint64_t len, bool write, std::byte* buf,
                   std::byte fill, bool use_fill) {
  sim::CpuScope on_cpu(machine_.scheduler(), p->cpu);
  if (!p->alive) {
    // Zombie shell: the killer already tore this address space down; the
    // caller observes why instead of dereferencing freed memory.
    return p->kill_err;
  }
  machine_.PollAudit();  // op boundary: VM structures are quiescent here
  mmu::Pmap& pmap = p->as->pmap();
  std::uint64_t done = 0;
  while (done < len) {
    sim::Vaddr cur = va + done;
    sim::Vaddr page_va = sim::PageTrunc(cur);
    std::uint64_t in_page = sim::kPageSize - (cur - page_va);
    std::uint64_t n = std::min<std::uint64_t>(in_page, len - done);

    sim::Prot need = write ? sim::Prot::kWrite : sim::Prot::kRead;
    auto pte = pmap.Extract(cur);
    if (!pte.has_value() || !sim::ProtIncludes(pte->prot, need)) {
      int err = vm_.Fault(*p->as, cur, write ? sim::Access::kWrite : sim::Access::kRead);
      if (err == sim::kErrNoMem || err == sim::kErrNoSwap) {
        err = RecoverFromPressure(p, cur, write, err);
      }
      if (err == sim::kErrMemPoison) {
        // The fault hit a poisoned page whose data is unrecoverable (dirty
        // anonymous memory with no other copy). Late kill, like a SIGBUS
        // with BUS_MCEERR_AR: the process dies, the machine survives.
        PoisonKill(p);
        return err;
      }
      if (err != sim::kOk) {
        return err;
      }
      pte = pmap.Extract(cur);
      SIM_ASSERT_MSG(pte.has_value() && sim::ProtIncludes(pte->prot, need),
                     "fault resolved without required mapping");
    }
    phys::Page* page = pm_.PageAt(pte->pfn);
    // Poisoned frames are unmapped the moment they are hit, so a poisoned
    // translation can only survive for wired or kernel memory — memory the
    // VM promised never to unmap and therefore cannot contain. Consuming
    // it is fatal, like a machine check in kernel mode.
    SIM_ASSERT_MSG(!page->poisoned, "EMEMPOISON: consumed a poisoned wired/kernel frame");
    page->referenced = true;
    // Keep the active queue in true recency order (the simulator's stand-in
    // for reference-bit sampling by the clock hands). This also rescues
    // pages parked off-queue by a failed pageout.
    if (page->wire_count == 0) {
      pm_.Activate(page);
    }
    auto data = pm_.Data(page);
    std::uint64_t poff = cur - page_va;
    if (write) {
      if (use_fill) {
        std::memset(data.data() + poff, static_cast<int>(fill), n);
      } else {
        std::memcpy(data.data() + poff, buf + done, n);
      }
      page->dirty = true;
    } else if (buf != nullptr) {
      std::memcpy(buf + done, data.data() + poff, n);
    }
    done += n;
  }
  return sim::kOk;
}

int Kernel::RecoverFromPressure(Proc* p, sim::Vaddr va, bool write, int err) {
  // Bounded daemon-and-retry with doubling virtual-time backoff: the
  // pressure may be transient (a plan step, a burst of allocations).
  const sim::RetryPolicy policy{kMaxFaultRetries,
                                machine_.cost().mem_retry_backoff_ns,
                                &machine_.stats().fault_retries};
  auto attempt_fault = [&] {
    err = vm_.Fault(*p->as, va, write ? sim::Access::kWrite : sim::Access::kRead);
    return err != sim::kErrNoMem && err != sim::kErrNoSwap;
  };
  auto run_daemon = [&](int) { vm_.PageDaemon(pm_.free_target()); };
  while (true) {
    if (sim::RetryWithBackoff(machine_, policy, attempt_fault, run_daemon)) {
      return err;
    }
    // Retries exhausted. Only when the killer is armed and swap itself
    // is full is killing a process the correct escalation; otherwise
    // surface the error to the caller.
    if (!oom_killer_enabled_ || swap_.free_slots() > 0 || !OutOfSwapKill()) {
      return err;
    }
    if (!p->alive) {
      return sim::kErrNoMem;  // the killer chose the requester itself
    }
    // A victim died; retry immediately, then with a fresh backoff budget.
    if (attempt_fault()) {
      return err;
    }
  }
}

bool Kernel::OutOfSwapKill() {
  Proc* victim = ChooseOomVictim();
  if (victim == nullptr) {
    return false;  // nothing killable would release memory
  }
  ++machine_.stats().oom_kills;
  if (machine_.tracer().enabled()) {
    machine_.tracer().Instant(sim::CostCat::kPageout, "oom_kill", machine_.clock().now(),
                              static_cast<std::uint64_t>(victim->pid));
  }
  machine_.stats().oom_pages_reclaimed += Kill(victim);
  return true;
}

void Kernel::PoisonKill(Proc* p) {
  sim::ChargeScope scope(machine_, sim::CostCat::kPoison, "poison_kill");
  machine_.Charge(machine_.cost().poison_contain_ns);
  if (machine_.tracer().enabled()) {
    machine_.tracer().Instant(sim::CostCat::kPoison, "poison_kill", machine_.clock().now(),
                              static_cast<std::uint64_t>(p->pid));
  }
  if (!CanKill(p)) {
    // vfork-entangled: the space is borrowed (or borrowing) and cannot be
    // torn down from here. The error still surfaces to the caller; the
    // poisoned page stays unmapped, so every retry faults again.
    return;
  }
  ++machine_.stats().poison_kills;
  machine_.stats().poison_pages_reclaimed += Kill(p);
  p->kill_err = sim::kErrMemPoison;
}

bool Kernel::CanKill(const Proc* p) const {
  if (!p->alive || p->shares_as) {
    return false;
  }
  // A vfork parent whose space is currently borrowed cannot be torn down.
  return !std::any_of(procs_.begin(), procs_.end(), [&](const auto& kv) {
    return kv.second->alive && kv.second->shares_as && kv.second->as == p->as;
  });
}

Proc* Kernel::ChooseOomVictim() {
  // The pid-ordered proc table makes the scan order (and so the tie-break)
  // reproducible.
  Proc* victim = nullptr;
  std::size_t victim_rss = 0;
  for (auto& [pid, proc] : procs_) {
    Proc* q = proc.get();
    if (!CanKill(q)) {
      continue;
    }
    machine_.Charge(machine_.cost().oom_scan_ns);
    std::size_t rss = vm_.AnonResidentPages(*q->as);
    if (rss > victim_rss) {
      victim = q;
      victim_rss = rss;
    }
  }
  return victim;  // nullptr: nothing killable would release memory
}

std::size_t Kernel::Kill(Proc* p) {
  SIM_ASSERT(p->alive && !p->shares_as);
  std::size_t free_before = pm_.free_pages();
  TearDown(p);  // the zombie shell's table entry survives until Exit or ~Kernel
  std::size_t free_after = pm_.free_pages();
  return free_after > free_before ? free_after - free_before : 0;
}

int Kernel::ReadMem(Proc* p, sim::Vaddr va, std::span<std::byte> out) {
  return Access(p, va, out.size(), /*write=*/false, out.data(), std::byte{0}, false);
}

int Kernel::WriteMem(Proc* p, sim::Vaddr va, std::span<const std::byte> in) {
  return Access(p, va, in.size(), /*write=*/true, const_cast<std::byte*>(in.data()),
                std::byte{0}, false);
}

int Kernel::TouchRead(Proc* p, sim::Vaddr va, std::uint64_t len) {
  for (sim::Vaddr cur = sim::PageTrunc(va); cur < va + len; cur += sim::kPageSize) {
    std::byte b;
    if (int err = Access(p, cur, 1, false, &b, std::byte{0}, false); err != sim::kOk) {
      return err;
    }
  }
  return sim::kOk;
}

int Kernel::TouchWrite(Proc* p, sim::Vaddr va, std::uint64_t len, std::byte fill) {
  for (sim::Vaddr cur = sim::PageTrunc(va); cur < va + len; cur += sim::kPageSize) {
    if (int err = Access(p, cur, 1, true, nullptr, fill, true); err != sim::kOk) {
      return err;
    }
  }
  return sim::kOk;
}

// ---------------------------------------------------------------------------
// Transient-wiring services (§3.2)

int Kernel::Sysctl(Proc* p, sim::Vaddr buf, std::uint64_t len) {
  sim::CpuScope on_cpu(machine_.scheduler(), p->cpu);
  if (!p->alive) {
    return p->kill_err;
  }
  TransientWiring tw;
  int err = vm_.WireTransient(*p->as, buf, len, &tw);
  if (err != sim::kOk) {
    return err;
  }
  p->kernel_stack_wirings.push_back(std::move(tw));
  // Copy the "result" of the query into the wired buffer.
  std::vector<std::byte> result(len, std::byte{0x5c});
  err = WriteMem(p, buf, result);
  if (!p->alive) {
    // The out-of-swap killer chose this process mid-copy; its wirings were
    // already torn down with the address space.
    return sim::kErrNoMem;
  }
  TransientWiring back = std::move(p->kernel_stack_wirings.back());
  p->kernel_stack_wirings.pop_back();
  vm_.UnwireTransient(*p->as, back);
  return err;
}

int Kernel::Physio(Proc* p, sim::Vaddr buf, std::uint64_t len, bool is_write) {
  sim::CpuScope on_cpu(machine_.scheduler(), p->cpu);
  if (!p->alive) {
    return p->kill_err;
  }
  sim::ChargeScope scope(machine_, sim::CostCat::kIo, "physio");
  TransientWiring tw;
  int err = vm_.WireTransient(*p->as, buf, len, &tw);
  if (err != sim::kOk) {
    return err;
  }
  p->kernel_stack_wirings.push_back(std::move(tw));
  std::size_t npages = sim::BytesToPages(len);
  if (is_write) {
    // Raw write: the device reads straight out of the wired user pages.
    std::vector<std::byte> sink(len);
    err = ReadMem(p, buf, sink);
    if (int werr = fs_.disk().WriteOp(npages); werr != sim::kOk && err == sim::kOk) {
      err = werr;
    }
  } else {
    // Raw read: device DMA lands directly in user memory.
    if (int rerr = fs_.disk().ReadOp(npages); rerr != sim::kOk) {
      err = rerr;
    } else {
      std::vector<std::byte> payload(len, std::byte{0xd1});
      err = WriteMem(p, buf, payload);
    }
  }
  if (!p->alive) {
    return sim::kErrNoMem;  // killed mid-transfer; wirings already gone
  }
  TransientWiring back = std::move(p->kernel_stack_wirings.back());
  p->kernel_stack_wirings.pop_back();
  vm_.UnwireTransient(*p->as, back);
  return err;
}

// ---------------------------------------------------------------------------
// Data movement (§7)

int Kernel::SocketSendCopy(Proc* p, sim::Vaddr va, std::uint64_t len) {
  sim::CpuScope on_cpu(machine_.scheduler(), p->cpu);
  if (!p->alive) {
    return p->kill_err;
  }
  sim::ChargeScope scope(machine_, sim::CostCat::kIo, "socket_send_copy");
  machine_.Charge(machine_.cost().socket_setup_ns);
  std::size_t npages = sim::BytesToPages(len);
  // Bulk copy user data into kernel mbufs, then protocol processing.
  std::vector<std::byte> mbuf(len);
  if (int err = ReadMem(p, va, mbuf); err != sim::kOk) {
    return err;
  }
  machine_.Charge(sim::CostCat::kCopy, machine_.cost().page_copy_ns * npages);
  machine_.stats().pages_copied += npages;
  machine_.Charge(machine_.cost().socket_per_page_ns * npages);
  return sim::kOk;
}

int Kernel::SocketSendLoan(Proc* p, sim::Vaddr va, std::uint64_t len) {
  sim::CpuScope on_cpu(machine_.scheduler(), p->cpu);
  if (!p->alive) {
    return p->kill_err;
  }
  sim::ChargeScope scope(machine_, sim::CostCat::kIo, "socket_send_loan");
  machine_.Charge(machine_.cost().socket_setup_ns);
  std::size_t npages = sim::BytesToPages(len);
  std::vector<phys::Page*> loaned;
  int err = vm_.Loan(*p->as, va, npages, &loaned);
  if (err != sim::kOk) {
    return err;  // kErrNotSup under BSD VM
  }
  // The socket layer transmits straight out of the loaned wired pages;
  // loan_page_ns covers the per-page mbuf-external setup and the (cheaper)
  // gather-style protocol processing.
  vm_.Unloan(loaned);
  return sim::kOk;
}

int Kernel::PageTransfer(Proc* src, sim::Vaddr va, std::uint64_t len, Proc* dst,
                         sim::Vaddr* out) {
  sim::CpuScope on_cpu(machine_.scheduler(), src->cpu);
  if (!src->alive) {
    return src->kill_err;
  }
  if (!dst->alive) {
    return dst->kill_err;
  }
  std::size_t npages = sim::BytesToPages(len);
  std::vector<phys::Page*> loaned;
  int err = vm_.Loan(*src->as, va, npages, &loaned);
  if (err != sim::kOk) {
    return err;
  }
  *out = 0;
  err = vm_.Transfer(*dst->as, out, loaned);
  vm_.Unloan(loaned);
  return err;
}

int Kernel::ExtractRange(Proc* src, sim::Vaddr va, std::uint64_t len, Proc* dst, sim::Vaddr* out,
                         ExtractMode mode) {
  sim::CpuScope on_cpu(machine_.scheduler(), src->cpu);
  if (!src->alive) {
    return src->kill_err;
  }
  if (!dst->alive) {
    return dst->kill_err;
  }
  *out = 0;
  return vm_.Extract(*src->as, va, len, *dst->as, out, mode);
}

// ---------------------------------------------------------------------------
// Mappable devices

kern::DeviceMem* Kernel::RegisterDevice(const std::string& name, std::size_t npages) {
  auto it = devices_.find(name);
  if (it != devices_.end()) {
    return it->second.get();
  }
  auto dev = std::make_unique<DeviceMem>();
  dev->name = name;
  for (std::size_t i = 0; i < npages; ++i) {
    phys::Page* p = pm_.AllocPage(phys::OwnerKind::kKernel, dev.get(), i, /*zero=*/true);
    SIM_POOL_FATAL_OK("boot-time device registration precedes any pressure plan");
    SIM_ASSERT_MSG(p != nullptr, "out of memory registering device");
    pm_.Wire(p);
    auto data = pm_.Data(p);
    for (std::size_t b = 0; b < sim::kPageSize; ++b) {
      data[b] = vfs::Filesystem::PatternByte(name, i * sim::kPageSize + b);
    }
    dev->pages.push_back(p);
  }
  DeviceMem* raw = dev.get();
  devices_.emplace(name, std::move(dev));
  return raw;
}

int Kernel::MmapDevice(Proc* p, sim::Vaddr* addr, DeviceMem* dev, const MapAttrs& attrs) {
  sim::CpuScope on_cpu(machine_.scheduler(), p->cpu);
  if (!p->alive) {
    return p->kill_err;
  }
  return vm_.MapDevice(*p->as, addr, *dev, attrs);
}

// ---------------------------------------------------------------------------
// System V shared memory (§7 map-entry passing under the hood)

int Kernel::ShmCreate(std::size_t npages, int* shmid) {
  if (shm_keeper_ == nullptr) {
    shm_keeper_ = vm_.CreateAddressSpace();
  }
  sim::Vaddr va = 0;
  MapAttrs attrs;
  attrs.shared = true;  // eager shared amap: the segment's identity
  int err = vm_.Map(*shm_keeper_, &va, npages * sim::kPageSize, nullptr, 0, attrs);
  if (err != sim::kOk) {
    return err;
  }
  *shmid = next_shmid_++;
  shm_segments_[*shmid] = ShmSegment{va, npages};
  return sim::kOk;
}

int Kernel::ShmAttach(Proc* p, int shmid, sim::Vaddr* addr) {
  sim::CpuScope on_cpu(machine_.scheduler(), p->cpu);
  if (!p->alive) {
    return p->kill_err;
  }
  auto it = shm_segments_.find(shmid);
  if (it == shm_segments_.end()) {
    return sim::kErrInval;
  }
  *addr = 0;
  // Genuine sharing via map-entry passing. BSD VM cannot do this (§1.1):
  // the call reports kErrNotSup.
  return vm_.Extract(*shm_keeper_, it->second.keeper_va,
                     it->second.npages * sim::kPageSize, *p->as, addr,
                     ExtractMode::kShare);
}

int Kernel::ShmDetach(Proc* p, int shmid, sim::Vaddr addr) {
  sim::CpuScope on_cpu(machine_.scheduler(), p->cpu);
  if (!p->alive) {
    return p->kill_err;
  }
  auto it = shm_segments_.find(shmid);
  if (it == shm_segments_.end()) {
    return sim::kErrInval;
  }
  return vm_.Unmap(*p->as, addr, it->second.npages * sim::kPageSize);
}

int Kernel::ShmRemove(int shmid) {
  auto it = shm_segments_.find(shmid);
  if (it == shm_segments_.end()) {
    return sim::kErrInval;
  }
  int err = vm_.Unmap(*shm_keeper_, it->second.keeper_va,
                      it->second.npages * sim::kPageSize);
  shm_segments_.erase(it);
  return err;
}

// ---------------------------------------------------------------------------
// Introspection

std::size_t Kernel::TotalMapEntries() const {
  std::size_t total = vm_.KernelMapEntries();
  for (const auto& [pid, proc] : procs_) {
    if (proc->alive) {
      total += proc->as->EntryCount();
    }
  }
  return total;
}

void Kernel::ReserveKernelBootEntries(std::size_t n) {
  MapAttrs attrs;
  attrs.inherit = sim::Inherit::kNone;
  for (std::size_t i = 0; i < n; ++i) {
    sim::Vaddr addr = 0;
    int err = vm_.Map(vm_.kernel_as(), &addr, sim::kPageSize, nullptr, 0, attrs);
    SIM_ASSERT(err == sim::kOk);
  }
}

}  // namespace kern
