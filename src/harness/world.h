// Test/bench fixture: assembles a complete simulated machine (physical
// memory, MMU, filesystem, swap) plus one of the two VM systems and the
// kernel facade. Most tests are parameterized over both systems.
#ifndef SRC_HARNESS_WORLD_H_
#define SRC_HARNESS_WORLD_H_

#include <cstdio>
#include <memory>
#include <string>

#include "src/bsdvm/bsd_vm.h"
#include "src/core/uvm.h"
#include "src/kern/kernel.h"
#include "src/mmu/pmap.h"
#include "src/phys/phys_mem.h"
#include "src/sim/chaos.h"
#include "src/sim/machine.h"
#include "src/swap/swap_device.h"
#include "src/vfs/filesystem.h"

namespace harness {

enum class VmKind { kBsd, kUvm };

inline const char* VmKindName(VmKind k) { return k == VmKind::kBsd ? "bsdvm" : "uvm"; }

struct WorldConfig {
  std::size_t ram_pages = 8192;        // 32 MB, the paper's machine
  std::size_t swap_slots = 32768;      // 128 MB swap
  std::size_t max_vnodes = 2048;
  // Pressure plan (DESIGN.md §12). Empty keeps every legacy run
  // byte-identical; InstallPressurePlan() derives sane defaults for the
  // watermarks and reserves a plan needs.
  std::string pressure_plan;  // "@TIME res(-=|+=|=)N; ..." or empty
  // Memory-error and audit knobs (DESIGN.md §13). Both default off, which
  // keeps every legacy run byte-identical: no poison events, no periodic
  // audits (the shutdown audit always runs but charges nothing).
  std::string memfault_plan;        // "@TIME poison PFN|random:N; ..." or empty
  sim::Nanoseconds audit_every = 0;  // periodic audit interval, 0 = off
  // Chaos-engine knob (DESIGN.md §17): a --chaos storm spec
  // ("io=4,pressure=2:seed=9:span=80ms" — see sim::ParseChaosSpec) expanded
  // into composed I/O-fault, pressure, and poison plans scaled to this
  // machine's pool geometry. Empty = inert.
  std::string chaos_plan;
  bsdvm::BsdConfig bsd;
  uvm::UvmConfig uvm;
};

class World {
 public:
  explicit World(VmKind kind, const WorldConfig& config = WorldConfig{})
      : pm(machine, config.ram_pages),
        mmu(pm),
        fs(machine, config.max_vnodes),
        swap(machine, config.swap_slots) {
    if (kind == VmKind::kBsd) {
      vm = std::make_unique<bsdvm::BsdVm>(machine, pm, mmu, fs.cache(), swap, config.bsd);
    } else {
      vm = std::make_unique<uvm::Uvm>(machine, pm, mmu, fs.cache(), swap, config.uvm);
    }
    kernel = std::make_unique<kern::Kernel>(machine, pm, fs, swap, *vm);
    if (!config.pressure_plan.empty()) {
      InstallPressurePlan(config.pressure_plan);
    }
    if (!config.memfault_plan.empty()) {
      InstallMemfaultPlan(config.memfault_plan);
    }
    if (!config.chaos_plan.empty()) {
      InstallChaosPlan(config.chaos_plan);
    }
    if (config.audit_every != 0) {
      machine.auditor().set_interval(config.audit_every);
    }
  }

  // Every World ends with a full cross-layer audit: a test or bench that
  // left amap/object refcounts, pv chains, swap-slot ownership, or the page
  // pools incoherent fails here even if its own assertions passed. Runs
  // before any member is destroyed, so every layer's checks are still
  // registered. Corruption-fixture tests must repair what they corrupt
  // before the World goes out of scope.
  ~World() { CheckInvariants(); }

  // Run the full cross-layer audit now (sim::Auditor, DESIGN.md §13): print
  // every violation and panic if there is any. Charges nothing and moves no
  // stat; tests call it at points where the machine must be coherent.
  void CheckInvariants() {
    if (std::size_t n = machine.auditor().Run(); n != 0) {
      for (const std::string& v : machine.auditor().last_violations()) {
        std::fprintf(stderr, "audit violation: %s\n", v.c_str());
      }
      SIM_PANIC("cross-layer audit failed");
    }
  }

  // Arm the pressure engine with `spec` (see sim::ParsePressurePlan for the
  // grammar). Watermarks and reserves still at zero are given defaults
  // scaled to the machine size — running a plan without an emergency pool
  // would turn the first deep shrink into a daemon deadlock.
  void InstallPressurePlan(const std::string& spec) {
    const sim::PressurePlan plan = ParseOrPanic("pressure", spec, sim::ParsePressurePlan);
    ArmPressureDefaults();
    machine.pressure().SetPlan(plan);
  }

  // Arm the memory-error injector with `spec` (see sim::ParseMemFaultPlan
  // for the grammar). Events fire from the pressure poll, so a plan needs no
  // watermark setup — poisoning is orthogonal to pool geometry.
  void InstallMemfaultPlan(const std::string& spec) {
    machine.faults().SetMemPlan(ParseOrPanic("memfault", spec, sim::ParseMemFaultPlan));
  }

  // Arm a composed chaos storm (see sim::ParseChaosSpec for the grammar).
  // The spec expands into concrete pressure/poison/I/O-fault plans scaled
  // to this World's pool geometry; a storm with pressure events gets the
  // same watermark defaults as a hand-written pressure plan.
  void InstallChaosPlan(const std::string& spec) {
    const sim::ChaosSpec chaos = ParseOrPanic("chaos", spec, sim::ParseChaosSpec);
    sim::ChaosGeometry geom;
    geom.phys_pages = pm.total_pages();
    geom.swap_slots = swap.total_slots();
    const sim::ChaosStorm storm = sim::BuildChaosStorm(chaos, geom);
    if (!storm.pressure.empty()) {
      ArmPressureDefaults();
      machine.pressure().SetPlan(storm.pressure);
    }
    if (!storm.mem.empty()) {
      machine.faults().SetMemPlan(storm.mem);
    }
    if (chaos.io != 0) {
      machine.faults().Reseed(chaos.seed);
      machine.faults().SetPlan(sim::IoDevice::kFilesystemDisk, storm.io_fs);
      machine.faults().SetPlan(sim::IoDevice::kSwapDisk, storm.io_swap);
    }
  }

  // Watermark/reserve defaults shared by every pressure-capable plan:
  // running one without an emergency pool would turn the first deep shrink
  // into a daemon deadlock.
  void ArmPressureDefaults() {
    if (pm.free_reserve() == 0) {
      pm.set_free_reserve(pm.total_pages() / 256 + 4);
    }
    if (pm.free_min() == 0) {
      pm.set_free_min(pm.total_pages() / 64 + 8);
    }
    if (swap.reserved_slots() == 0) {
      swap.set_reserved_slots(32);
    }
    kernel->set_oom_killer(true);
  }

  sim::Machine machine;
  phys::PhysMem pm;
  mmu::MmuContext mmu;
  vfs::Filesystem fs;
  swp::SwapDevice swap;
  std::unique_ptr<kern::VmSystem> vm;
  std::unique_ptr<kern::Kernel> kernel;

 private:
  // Parse a `what` plan spec with `parse`; a malformed one prints the
  // parser's message and panics. Bench flags are validated before any World
  // exists, so this only catches specs built in code.
  template <typename Plan>
  static Plan ParseOrPanic(const char* what, const std::string& spec,
                           bool (*parse)(const std::string&, Plan*, std::string*)) {
    Plan plan;
    std::string error;
    if (!parse(spec, &plan, &error)) {
      std::fprintf(stderr, "bad %s plan: %s\n", what, error.c_str());
      SIM_PANICF("invalid %s plan spec", what);
    }
    return plan;
  }
};

}  // namespace harness

#endif  // SRC_HARNESS_WORLD_H_
