#!/bin/sh
# Tier-1 CI: static analysis (simlint), build + full test suite, the same
# under ASan and UBSan, then the host-time perf harness with its
# BENCH_host.json checked against the committed baseline (deterministic
# fields exact, speedups against floors; see scripts/diff_bench_host.py).
#
# UVM_CI_SKIP_ASAN=1  skips the sanitizer passes (quick local iteration).
# UVM_CI_FULL=1       forces full-tree simlint; the default lints the whole
#                     tree too unless UVM_CI_DIFF_REF is set, in which case
#                     only files changed vs that ref are linted (fast local
#                     mode, e.g. UVM_CI_DIFF_REF=origin/main).
set -eu

cd "$(dirname "$0")/.."

# Static-analysis gate first: it is cheap and fails fast. Diff mode still
# builds its context (call graph, layer DAG) from the full tree; only the
# reported files are restricted.
if [ -n "${UVM_CI_DIFF_REF:-}" ] && [ "${UVM_CI_FULL:-0}" != "1" ]; then
  python3 tools/simlint/simlint.py --diff "${UVM_CI_DIFF_REF}"
else
  python3 tools/simlint/simlint.py --all
fi
python3 tools/simlint/tests/run_tests.py
python3 scripts/tests/test_diff_bench_host.py

# Lock-discipline static gate (DESIGN.md §15): the SimLock capability
# annotations become real Clang Thread Safety Analysis checks under the
# `tsa` preset, promoted to errors. Gated on clang++ because the TSA
# attribute macros expand to nothing under GCC — without Clang there is
# nothing to check, not a pass.
if command -v clang++ > /dev/null 2>&1; then
  cmake --workflow --preset ci-tsa
else
  echo "ci.sh: clang++ not found; skipping the thread-safety analysis gate"
fi

# Advisory static analysis: clang-tidy's bugprone-*/concurrency-* checks
# from .clang-tidy (the analyze preset). Never fails CI — findings are
# printed for humans; the enforced subset lives in WarningsAsErrors.
if command -v clang-tidy > /dev/null 2>&1; then
  cmake --workflow --preset ci-analyze     || echo "ci.sh: advisory clang-tidy stage reported findings (non-fatal)"
fi

cmake --workflow --preset ci

if [ "${UVM_CI_SKIP_ASAN:-0}" != "1" ]; then
  cmake --workflow --preset ci-asan
  cmake --workflow --preset ci-ubsan
fi

# Virtual-time benches: byte-deterministic by construction. Runs each of
# the eight paper benches twice (identical output required), once more with
# --trace (identical stdout required: tracing is observer-effect-free),
# validates the Chrome-trace JSON through tools/traceview, and fingerprints
# everything into build/BENCH_virtual.json. --expect makes "same bytes" a
# gate: every fingerprint must match the committed BENCH_virtual.json, and
# a change that moves one must update that file and say why in CHANGES.md.
python3 scripts/bench_virtual_json.py --bindir build/bench --out build/BENCH_virtual.json \
  --expect BENCH_virtual.json

# Pressure soak: the same eight benches under an adversarial resource plan
# (phys memory shrunk to ~12% at 1ms, swap clamped to less than half at
# 50ms, both restored later). Every bench must still complete on both VMs
# with zero fatal asserts, and the double-run + traced-run byte-identity
# checks above apply unchanged — graceful degradation must be exactly as
# deterministic as the happy path.
python3 scripts/bench_virtual_json.py --bindir build/bench \
  --pressure '@1ms phys-=7000; @50ms swap=14200; @20s swap=32768; @30s phys+=5000' \
  --out build/BENCH_pressure.json --expect BENCH_pressure.json

# Containment soak: the same eight benches once more with everything armed
# at once — the adversarial pressure plan above, a seeded memory-error plan
# (random frame poison at three virtual-time points), and the cross-layer
# auditor polling every virtual millisecond. hwpoison containment (discard
# + transparent refetch, late kills, loan revocation) must be exactly as
# byte-deterministic as the happy path, and every bench must finish with a
# clean shutdown audit (any violation panics the World destructor). Runs
# against the ASan build when sanitizers are enabled so containment bugs
# also surface as ASan reports. The ASan and RelWithDebInfo builds print the
# same bytes, so one committed BENCH_soak.json gates either.
SOAK_BINDIR=build/bench
if [ "${UVM_CI_SKIP_ASAN:-0}" != "1" ]; then
  SOAK_BINDIR=build-asan/bench
fi
python3 scripts/bench_virtual_json.py --bindir "$SOAK_BINDIR" \
  --pressure '@1ms phys-=7000; @50ms swap=14200; @20s swap=32768; @30s phys+=5000' \
  --memfault '@2ms poison random:2; @8ms poison random:3; @40ms poison random:2' \
  --audit 1 \
  --out build/BENCH_soak.json --expect BENCH_soak.json

# Server-fleet engine: a million kernel ops per VM (request bursts,
# vnode-cache churn, fork/exec build storms) through the slab-backed
# metadata layer. stdout is fully deterministic (host wall time goes to
# stderr), so plain and pressure-soaked double runs are compared
# byte-for-byte. The pressure plan shrinks physical memory until the fleet's
# resident set no longer fits, forcing pageout/reclaim through the pools.
./build/bench/bench_fleet > build/fleet_a.txt
./build/bench/bench_fleet > build/fleet_b.txt
cmp build/fleet_a.txt build/fleet_b.txt
./build/bench/bench_fleet --pressure='@1ms phys-=7600; @30s phys+=2000' \
  > build/fleet_pressure_a.txt
./build/bench/bench_fleet --pressure='@1ms phys-=7600; @30s phys+=2000' \
  > build/fleet_pressure_b.txt
cmp build/fleet_pressure_a.txt build/fleet_pressure_b.txt

# Deterministic SMP (DESIGN.md §16): the same fleet across 4 virtual CPUs,
# with the per-lock contention table on stdout. Multi-CPU worlds must be
# exactly as byte-reproducible as single-CPU ones — plain and
# pressure-soaked double runs are compared byte-for-byte.
./build/bench/bench_fleet --cpus=4 --locks > build/fleet_smp_a.txt
./build/bench/bench_fleet --cpus=4 --locks > build/fleet_smp_b.txt
cmp build/fleet_smp_a.txt build/fleet_smp_b.txt
./build/bench/bench_fleet --cpus=4 --locks \
  --pressure='@1ms phys-=7600; @30s phys+=2000' > build/fleet_smp_pressure_a.txt
./build/bench/bench_fleet --cpus=4 --locks \
  --pressure='@1ms phys-=7600; @30s phys+=2000' > build/fleet_smp_pressure_b.txt
cmp build/fleet_smp_pressure_a.txt build/fleet_smp_pressure_b.txt

# Chaos engine (DESIGN.md §17): the fleet under a composed fault storm with
# a fuzzed schedule, on a fixed op budget, once per schedule strategy. Every
# armed run must be exactly as byte-reproducible as the happy path — the
# double-run compare is the whole point of deterministic chaos. On failure
# the repro string is printed: a panic's own `repro:` stderr line if there
# is one, otherwise the scenario CLI (which is the repro payload).
chaos_run() {
  tag=$1
  shift
  if ! ./build/bench/bench_chaos "$@" \
      > "build/chaos_${tag}_a.txt" 2> "build/chaos_${tag}_err.txt"; then
    echo "ci.sh: chaos run '${tag}' failed; repro:" >&2
    grep '^repro: ' "build/chaos_${tag}_err.txt" >&2 \
      || echo "ci.sh:   bench_chaos $*" >&2
    return 1
  fi
  if ! ./build/bench/bench_chaos "$@" \
      > "build/chaos_${tag}_b.txt" 2> /dev/null; then
    echo "ci.sh: chaos rerun '${tag}' failed; repro: bench_chaos $*" >&2
    return 1
  fi
  if ! cmp "build/chaos_${tag}_a.txt" "build/chaos_${tag}_b.txt"; then
    echo "ci.sh: chaos double-run '${tag}' diverged; repro: bench_chaos $*" >&2
    return 1
  fi
}
for sched in rr random:3 burst:5 pct3:7 pb16; do
  chaos_run "$(echo "$sched" | tr : _)" --ops=60000 --cpus=4 --shared --sched="$sched"
done

# The plan shrinker, subprocess-free: a synthetic failure predicate the
# shrinker must reduce to its minimal scenario, deterministically enough to
# byte-compare, ending in a well-formed repro string.
./build/bench/bench_chaos --shrink-demo > build/chaos_shrink_a.txt
./build/bench/bench_chaos --shrink-demo > build/chaos_shrink_b.txt
cmp build/chaos_shrink_a.txt build/chaos_shrink_b.txt
grep -q '^repro: uvmchaos/v1|' build/chaos_shrink_a.txt

# "Same bytes" for every fleet and chaos run above: each first run's stdout
# must hash to its committed value. sha256sum prints a FAILED line naming
# each run whose output moved; a change that moves one must update
# BENCH_fleet_chaos.sha256 and say why in CHANGES.md.
if ! sha256sum -c --quiet BENCH_fleet_chaos.sha256; then
  echo "ci.sh: fleet/chaos stdout moved from BENCH_fleet_chaos.sha256 (see FAILED above)" >&2
  exit 1
fi

# Malformed plan flags must be rejected at parse time with exit 2 and a
# parser message — never half-armed or silently ignored. That includes a
# number too large for its field, which must not wrap into a different run.
for bad in "--pressure=@1ms warp" "--memfault=@1ms poison wat" \
    "--chaos=wat=3" "--sched=warp9" "--chaos=io=1:span=20000000000s"; do
  rc=0
  ./build/bench/bench_fleet "$bad" > /dev/null 2> build/chaos_cli_err.txt || rc=$?
  if [ "$rc" != 2 ]; then
    echo "ci.sh: bench_fleet '$bad' exited $rc, want 2" >&2
    cat build/chaos_cli_err.txt >&2
    exit 1
  fi
  if ! [ -s build/chaos_cli_err.txt ]; then
    echo "ci.sh: bench_fleet '$bad' rejected without a message" >&2
    exit 1
  fi
done

# Host-perf gate: deterministic fields must match the committed baseline
# exactly, micro speedups must clear their floors, and host timings must
# stay within the regression tolerance (UVM_HOST_TOLERANCE, default +25%).
./build/bench/bench_host_perf --quick --out build/BENCH_host.json
python3 scripts/diff_bench_host.py BENCH_host.json build/BENCH_host.json
