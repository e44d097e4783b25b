// Audit-greppable escape hatches for tools/simlint. Each macro marks a
// site where a simlint rule fires but the code is correct, and records the
// reason in-source. simlint suppresses a finding when the matching token
// appears on the flagged line or within the two lines above it (statement
// form below, or comment form `// SIM_ORDERED_OK: reason` where a statement
// cannot appear, e.g. at class scope); SIM_NO_CHARGE_OK is also honoured
// anywhere inside the flagged function's body.
//
// Every use must carry a reason string. The macros compile to nothing; they
// exist so annotations are compiler-checked for placement and `grep -rn
// SIM_` audits every exemption in one pass.
//
//  SIM_ORDERED_OK    iteration over an unordered container whose order is
//                    provably unobservable: the results are sorted before
//                    use, reduced by an order-insensitive fold (sum, set
//                    build), or only feed assertions.
//  SIM_HOST_TIME_OK  a deliberate host-time / host-randomness read outside
//                    src/sim/rng.h (e.g. wall-clock instrumentation that
//                    never feeds back into simulation state).
//  SIM_NO_CHARGE_OK  a data-movement primitive that legitimately bypasses
//                    the cost model (e.g. host-side staging for a charged
//                    I/O call: the real kernel would DMA straight from the
//                    frames, so only the device cost is modeled).
//  SIM_POOL_FATAL_OK a fatal assert on a fixed-pool exhaustion path that is
//                    provably unreachable (a reservation guarantees
//                    headroom) or genuinely unrecoverable (boot-time
//                    allocation before any process exists). All other pool
//                    exhaustion must surface as a typed error — see
//                    DESIGN.md §12.
//  SIM_POOL_ALLOC_OK a naked `new`/`make_unique` of a pool-owned metadata
//                    type (Anon, Amap, VmObject, PvEntry, PtTable) inside
//                    src/ — legal only for objects that genuinely outlive
//                    the machine's pool. `machine.pools().New<T>()` is the
//                    allocator everywhere else so leak asserts, high-water
//                    stats and deterministic reuse order hold — see
//                    DESIGN.md §14.
//  SIM_POISON_WRITE_OK a direct write to phys::Page::poisoned outside
//                    phys::PhysMem's injection entry points (e.g. a test
//                    deliberately corrupting state to prove the auditor
//                    catches it). Everything else must poison frames via
//                    PhysMem so retirement and accounting stay coherent —
//                    see DESIGN.md §13.
//  SIM_LOCK_CHARGE_OK a `Charge(...kLock...)` outside src/sim/lock.h. The
//                    only sanctioned kLock charge site is SimLock::Acquire
//                    so every lock round-trip is attributable to a named,
//                    ranked lock; a bare charge is legal only in code that
//                    deliberately models an anonymous lock (e.g. a test
//                    exercising the cost model directly) — see DESIGN.md §15.
//  SIM_LOCK_BALANCE_OK a Lock()/Acquire() without a paired Unlock()/Release()
//                    or RAII guard in the same function — legal only when
//                    the release provably happens on every path in a callee
//                    or sibling (hand-over-hand locking) — see DESIGN.md §15.
//  SIM_SCHED_SWITCH_OK a raw scheduler/clock mutation (Scheduler::SwitchTo,
//                    Clock::SetNow, LockRegistry::SetCurrentCpu) outside
//                    src/sim/ — legal only in tests that deliberately drive
//                    the scheduler by hand. Kernel code changes CPU solely
//                    via sim::CpuScope, which pairs every switch with its
//                    restore at an operation boundary — see DESIGN.md §16.
//  SIM_CHAOS_STREAM_OK an Rng constructed in the chaos engine or scheduler
//                    without a decorrelated stream constant in its seed
//                    expression. Schedule/plan perturbation randomness must
//                    come from seeded splitmix64 streams offset by golden-
//                    gamma multiples (seed ^ kFooStream); a raw Rng(seed)
//                    silently correlates two components' event sequences,
//                    breaking independent shrinking — see DESIGN.md §17.
#ifndef SRC_SIM_ANNOTATIONS_H_
#define SRC_SIM_ANNOTATIONS_H_

#define SIM_ORDERED_OK(reason) \
  do {                         \
  } while (false)
#define SIM_HOST_TIME_OK(reason) \
  do {                           \
  } while (false)
#define SIM_NO_CHARGE_OK(reason) \
  do {                           \
  } while (false)
#define SIM_POOL_FATAL_OK(reason) \
  do {                            \
  } while (false)
#define SIM_POOL_ALLOC_OK(reason) \
  do {                            \
  } while (false)
#define SIM_POISON_WRITE_OK(reason) \
  do {                              \
  } while (false)
#define SIM_LOCK_CHARGE_OK(reason) \
  do {                             \
  } while (false)
#define SIM_LOCK_BALANCE_OK(reason) \
  do {                              \
  } while (false)
#define SIM_SCHED_SWITCH_OK(reason) \
  do {                              \
  } while (false)
#define SIM_CHAOS_STREAM_OK(reason) \
  do {                              \
  } while (false)

// ---------------------------------------------------------------------------
// Clang Thread Safety Analysis attribute layer (DESIGN.md §15).
//
// sim::SimLock is a capability: the simulator is single-threaded, but the
// lock discipline it models (named locks, a global rank order, REQUIRES
// contracts on functions that expect a lock held) is the real UVM one, and
// Clang's -Wthread-safety checks it statically wherever these annotations
// appear. On non-Clang compilers (this repo's default toolchain is GCC) the
// attributes compile away to nothing; the runtime rank validator in
// sim::SimLock enforces the same discipline deterministically on every run.
// The `tsa` CMake preset builds with clang++ and -Werror=thread-safety.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define SIM_TSA(x) __attribute__((x))
#endif
#endif
#ifndef SIM_TSA
#define SIM_TSA(x)  // non-Clang (or old Clang): attributes vanish
#endif

#define SIM_CAPABILITY(x) SIM_TSA(capability(x))
#define SIM_SCOPED_CAPABILITY SIM_TSA(scoped_lockable)
#define SIM_GUARDED_BY(x) SIM_TSA(guarded_by(x))
#define SIM_PT_GUARDED_BY(x) SIM_TSA(pt_guarded_by(x))
#define SIM_REQUIRES(...) SIM_TSA(requires_capability(__VA_ARGS__))
#define SIM_ACQUIRE(...) SIM_TSA(acquire_capability(__VA_ARGS__))
#define SIM_RELEASE(...) SIM_TSA(release_capability(__VA_ARGS__))
#define SIM_TRY_ACQUIRE(...) SIM_TSA(try_acquire_capability(__VA_ARGS__))
#define SIM_EXCLUDES(...) SIM_TSA(locks_excluded(__VA_ARGS__))
#define SIM_ACQUIRED_BEFORE(...) SIM_TSA(acquired_before(__VA_ARGS__))
#define SIM_ACQUIRED_AFTER(...) SIM_TSA(acquired_after(__VA_ARGS__))
#define SIM_RETURN_CAPABILITY(x) SIM_TSA(lock_returned(x))
#define SIM_NO_TSA SIM_TSA(no_thread_safety_analysis)

#endif  // SRC_SIM_ANNOTATIONS_H_
