// The kernel facade: processes, a syscall-shaped API, and user memory
// access that drives the MMU/fault machinery. Everything here is written
// against kern::VmSystem, so the same workload code runs over BSD VM and
// UVM — which is how the paper's side-by-side numbers are produced.
#ifndef SRC_KERN_KERNEL_H_
#define SRC_KERN_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/vm/vm_iface.h"
#include "src/phys/phys_mem.h"
#include "src/sim/machine.h"
#include "src/swap/swap_device.h"
#include "src/vfs/filesystem.h"

namespace kern {

struct Proc {
  int pid = 0;
  AddressSpace* as = nullptr;
  ProcKernelResources kres;
  // UVM keeps transient (sysctl/physio) wired state here — "on the kernel
  // stack" — instead of in the map (§3.2).
  std::vector<TransientWiring> kernel_stack_wirings;
  // vfork(2): this process borrows its parent's address space and must not
  // tear it down on exit.
  bool shares_as = false;
  bool swapped_out = false;
  // Cleared by Exit and by Kernel::Kill. A killed process stays
  // in the proc table as a zombie shell (as == nullptr) so callers holding
  // the Proc* can observe the kill instead of dereferencing freed memory.
  bool alive = true;
  // Why the killer tore this process down (kErrNoMem for out-of-swap,
  // kErrMemPoison for hwpoison late-kill): every syscall on the zombie
  // shell returns this instead of touching the freed address space.
  int kill_err = sim::kErrNoMem;
  // Processor affinity (DESIGN.md §16): every syscall this process issues
  // runs on this virtual CPU — the kernel enters a sim::CpuScope at each
  // operation boundary. Forked children inherit the parent's CPU; in
  // single-CPU worlds everyone stays on cpu 0 and the scope is inert.
  std::size_t cpu = 0;
};

class Kernel {
 public:
  Kernel(sim::Machine& machine, phys::PhysMem& pm, vfs::Filesystem& fs, swp::SwapDevice& swap,
         VmSystem& vm);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- Process management ---
  // Spawn/Fork/Vfork return nullptr when per-process kernel resources
  // (u-area + kernel stack pages or kernel-map entries) cannot be
  // allocated; under no resource pressure they never fail.
  // create a fresh process (like kernel exec'ing init), pinned to `cpu`
  Proc* Spawn(std::size_t cpu = 0);
  Proc* Fork(Proc* parent);   // fork(2)
  // vfork(2): the child shares the parent's address space outright — no
  // entry copying, no write protection, no COW faults (the paper's §5.3
  // footnote on avoiding fork overhead entirely).
  Proc* Vfork(Proc* parent);
  void Exit(Proc* p);         // _exit(2): tear down the address space
  // Scheduler-driven whole-process swapping (§3.2): unwire / rewire the
  // u-area and kernel stack.
  void SwapOutProc(Proc* p);
  void SwapInProc(Proc* p);
  std::size_t live_procs() const {
    std::size_t n = 0;
    for (const auto& [pid, proc] : procs_) {
      n += proc->alive ? 1 : 0;
    }
    return n;
  }

  // --- Mapping syscalls ---
  int Mmap(Proc* p, sim::Vaddr* addr, std::uint64_t len, const std::string& file,
           sim::ObjOffset off, const MapAttrs& attrs);
  int MmapAnon(Proc* p, sim::Vaddr* addr, std::uint64_t len, const MapAttrs& attrs);
  int Munmap(Proc* p, sim::Vaddr addr, std::uint64_t len);
  int Mprotect(Proc* p, sim::Vaddr addr, std::uint64_t len, sim::Prot prot);
  int Minherit(Proc* p, sim::Vaddr addr, std::uint64_t len, sim::Inherit inherit);
  int Madvise(Proc* p, sim::Vaddr addr, std::uint64_t len, sim::Advice advice);
  int Msync(Proc* p, sim::Vaddr addr, std::uint64_t len);
  int Mlock(Proc* p, sim::Vaddr addr, std::uint64_t len);
  int Munlock(Proc* p, sim::Vaddr addr, std::uint64_t len);
  int MadvFree(Proc* p, sim::Vaddr addr, std::uint64_t len);
  int Mincore(Proc* p, sim::Vaddr addr, std::uint64_t len, std::vector<bool>* out);

  // --- User memory access (drives the simulated MMU + page faults) ---
  int ReadMem(Proc* p, sim::Vaddr va, std::span<std::byte> out);
  int WriteMem(Proc* p, sim::Vaddr va, std::span<const std::byte> in);
  // Touch one byte per page over [va, va+len).
  int TouchRead(Proc* p, sim::Vaddr va, std::uint64_t len);
  int TouchWrite(Proc* p, sim::Vaddr va, std::uint64_t len, std::byte fill);

  // --- Kernel services exercising transient wiring (§3.2) ---
  // sysctl(2): wire the user buffer, copy the result out, unwire.
  int Sysctl(Proc* p, sim::Vaddr buf, std::uint64_t len);
  // physio(): raw I/O straight between the device and user memory.
  int Physio(Proc* p, sim::Vaddr buf, std::uint64_t len, bool is_write);

  // --- Data movement (§7) ---
  // Send [va, va+len) to a socket by copying into kernel buffers.
  int SocketSendCopy(Proc* p, sim::Vaddr va, std::uint64_t len);
  // Same, but loan the user pages to the socket layer (UVM only).
  int SocketSendLoan(Proc* p, sim::Vaddr va, std::uint64_t len);
  // Move data to another process: loan from src, page-transfer into dst.
  int PageTransfer(Proc* src, sim::Vaddr va, std::uint64_t len, Proc* dst, sim::Vaddr* out);
  // Map-entry passing between processes.
  int ExtractRange(Proc* src, sim::Vaddr va, std::uint64_t len, Proc* dst, sim::Vaddr* out,
                   ExtractMode mode);

  // --- Mappable devices (framebuffer / ROM style) ---
  // Register a device of `npages` wired frames, filled with a pattern
  // derived from `name`. The returned handle stays valid for the kernel's
  // lifetime.
  DeviceMem* RegisterDevice(const std::string& name, std::size_t npages);
  int MmapDevice(Proc* p, sim::Vaddr* addr, DeviceMem* dev, const MapAttrs& attrs);

  // --- System V shared memory (built on map-entry passing, §7) ---
  // Create a segment of `npages`; returns a segment id through *shmid.
  // The segment lives in a kernel-held keeper address space until removed.
  int ShmCreate(std::size_t npages, int* shmid);
  // Map the segment into `p` (genuine sharing). Under BSD VM this fails
  // with kErrNotSup — the §1.1 limitation this facility demonstrates.
  int ShmAttach(Proc* p, int shmid, sim::Vaddr* addr);
  int ShmDetach(Proc* p, int shmid, sim::Vaddr addr);
  // Drop the keeper's reference; memory dies with the last detach.
  int ShmRemove(int shmid);

  // --- Introspection ---
  // Total allocated map entries: every process map plus the kernel map
  // (the Table 1 metric). A vfork child's borrowed map counts once, as its
  // parent's.
  std::size_t TotalMapEntries() const;
  // Visit every live process (ordered by pid); zombie shells left behind
  // by the out-of-swap killer are skipped.
  template <typename Fn>
  void ForEachProc(Fn&& fn) {
    for (auto& [pid, proc] : procs_) {
      if (proc->alive) {
        fn(*proc);
      }
    }
  }

  VmSystem& vm() { return vm_; }
  vfs::Filesystem& fs() { return fs_; }
  sim::Machine& machine() { return machine_; }
  phys::PhysMem& phys() { return pm_; }

  // Create `n` placeholder wired kernel-map reservations modelling the
  // kernel's static boot-time allocations (identical for both systems).
  void ReserveKernelBootEntries(std::size_t n);

  // Arm/disarm the out-of-swap killer (DESIGN.md §12). Off by default:
  // without a pressure plan, exhaustion keeps surfacing as kErrNoMem /
  // kErrNoSwap so capacity tests observe errors rather than lost processes.
  void set_oom_killer(bool on) { oom_killer_enabled_ = on; }
  bool oom_killer() const { return oom_killer_enabled_; }

 private:
  // Every system call on `p` goes through here: call() runs on p's CPU, or
  // a killed p gets the error it was killed with.
  template <typename Fn>
  int Syscall(Proc* p, Fn&& call);
  // Sysctl's and Physio's bracket (§3.2): wire [buf, buf+len) on the kernel
  // stack, run copy(), unwire. A process killed meanwhile gets kErrNoMem.
  template <typename Fn>
  int WithWiredBuffer(Proc* p, sim::Vaddr buf, std::uint64_t len, Fn&& copy);
  int Access(Proc* p, sim::Vaddr va, std::uint64_t len, bool write, std::byte* buf,
             std::byte fill, bool use_fill);

  // --- Resource-pressure recovery (DESIGN.md §12) ---
  // A fault failed with kErrNoMem/kErrNoSwap: run bounded pagedaemon-and-
  // retry passes with doubling backoff; if swap is exhausted and the daemon
  // cannot help, consult the out-of-swap killer and retry. Returns kOk once
  // the fault succeeds, kErrNoMem if `p` itself was chosen as the victim,
  // or the original error when recovery is impossible.
  int RecoverFromPressure(Proc* p, sim::Vaddr va, bool write, int err);
  // Deterministic out-of-swap killer: terminate the live process with the
  // largest anonymous resident set (ties keep the lowest pid). Returns
  // whether a victim was killed.
  bool OutOfSwapKill();
  // hwpoison late kill (DESIGN.md §13): a fault hit a dirty anonymous page
  // whose only copy died with a poisoned frame. Kill the faulting process
  // if it can be torn down (a vfork-entangled process just gets the error).
  void PoisonKill(Proc* p);
  // Out-of-swap victim choice: the live process with the largest anonymous
  // resident set; strict comparison keeps the lowest pid on ties. Skips
  // processes CanKill rejects. Charges oom_scan_ns per candidate examined.
  // Returns nullptr when no killable process would release memory.
  Proc* ChooseOomVictim();
  // True when `p` can be torn down at all: alive, owns its address space,
  // and no live vfork child is borrowing it.
  bool CanKill(const Proc* p) const;
  // Tear down the victim, leaving a zombie shell in the proc table
  // (alive == false, as == nullptr) so callers holding the Proc* observe
  // the kill. Returns the number of frames released to the free list; the
  // caller attributes them and bumps its own kill counter.
  std::size_t Kill(Proc* p);

  // --- Process lifecycle ---
  // Spawn/Fork/Vfork's common tail: a new Proc on `as` with its u-area.
  // When the u-area cannot be had, `as` is destroyed unless it is borrowed.
  Proc* NewProc(std::size_t cpu, AddressSpace* as, bool shares_as);
  // Exit's and Kill's common teardown: transient wirings, the address
  // space unless borrowed, swap-in if swapped out, then the u-area.
  void TearDown(Proc* p);
  // The u-area and kernel stack (§3.2): for each range the VM's record
  // first (VmSystem::MapProcRange), then its frames, wired. On failure
  // everything taken so far is given back.
  int AllocProcResources(ProcKernelResources* res);
  void FreeProcResources(ProcKernelResources& res);
  // Swap-out (wired == false) or swap-in: the VM's record, then the frames.
  void SetUareaWired(Proc* p, bool wired);

  sim::Machine& machine_;
  phys::PhysMem& pm_;
  vfs::Filesystem& fs_;
  swp::SwapDevice& swap_;
  VmSystem& vm_;
  std::map<int, std::unique_ptr<Proc>> procs_;
  int next_pid_ = 1;
  bool oom_killer_enabled_ = false;

  struct ShmSegment {
    sim::Vaddr keeper_va = 0;
    std::size_t npages = 0;
  };
  std::map<std::string, std::unique_ptr<DeviceMem>> devices_;
  AddressSpace* shm_keeper_ = nullptr;  // lazily created
  std::map<int, ShmSegment> shm_segments_;
  int next_shmid_ = 1;
};

}  // namespace kern

#endif  // SRC_KERN_KERNEL_H_
