#!/bin/sh
# Tier-1 CI: static analysis (simlint), build + full test suite, the same
# under ASan and UBSan, the virtual-time, vmbench, fleet, chaos and example
# fingerprints, then the host-time perf harness with its BENCH_host.json
# checked against the committed baseline (deterministic fields exact, host
# timings in reference-host units within +25%; see
# scripts/diff_bench_host.py).
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

# vmbench (the repository benchmark): its self-tests, then one run per
# workload at seed 1 with no time budget, which still makes the minimum
# four rounds and checks every round's virtual fingerprint against the
# first. Each run's two fingerprint lines (uvm, bsdvm) go to
# build/vmbench_WORKLOAD_fp.txt and are hashed with the fleet, chaos and
# example runs below, so a host-time change to either VM must leave every
# round's virtual state alone. A run that is not correct or has a failed
# call fails here.
python3 vmbench/run.py --selftest
for workload in fork filemap paging; do
  python3 vmbench/run.py --workload "$workload" --seed 1 --seconds 0 --trace 0 \
    > "build/vmbench_${workload}.txt"
  grep -E '^(uvm|bsdvm) +fingerprint ' "build/vmbench_${workload}.txt" \
    > "build/vmbench_${workload}_fp.txt"
  if ! tail -n 1 "build/vmbench_${workload}.txt" | python3 -c '
import json, sys
r = json.load(sys.stdin)
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)'; then
    echo "ci.sh: vmbench/run.py --workload $workload --seed 1 --seconds 0 was not correct" \
      "or had failed calls; see build/vmbench_${workload}.txt" >&2
    exit 1
  fi
done

# Fleet, chaos and example double runs. Each run executes twice and its two
# stdouts must be byte-identical; the fifteen double runs go in parallel as
# background jobs, and every one is waited on. A run that fails or diverges
# names its command: a panic's own `repro:` stderr line if there is one,
# otherwise the command line (for bench_chaos, the scenario CLI is the
# repro payload).
# Each run's stdout goes to build/TAG_a.txt and build/TAG_b.txt, its stderr
# (host wall time, or a panic) to build/TAG_a_err.txt and build/TAG_b_err.txt.
double_run() {
  tag=$1
  shift
  for run in a b; do
    if ! "$@" > "build/${tag}_${run}.txt" 2> "build/${tag}_${run}_err.txt"; then
      echo "ci.sh: run '${tag}' (${run}) failed, stderr in build/${tag}_${run}_err.txt; repro:" >&2
      grep '^repro: ' "build/${tag}_${run}_err.txt" >&2 || echo "ci.sh:   $*" >&2
      return 1
    fi
  done
  if ! cmp "build/${tag}_a.txt" "build/${tag}_b.txt"; then
    echo "ci.sh: double run '${tag}' diverged; repro: $*" >&2
    return 1
  fi
}
double_run_pids=""
double_run_bg() {
  double_run "$@" &
  double_run_pids="$double_run_pids $!"
}

# Server-fleet engine: a million kernel ops per VM (request bursts,
# vnode-cache churn, fork/exec build storms) through the slab-backed
# metadata layer. stdout is fully deterministic (host wall time goes to
# stderr), plain and pressure-soaked. The pressure plan shrinks physical
# memory until the fleet's resident set no longer fits, forcing
# pageout/reclaim through the pools.
FLEET_PRESSURE='--pressure=@1ms phys-=7600; @30s phys+=2000'
double_run_bg fleet ./build/bench/bench_fleet
double_run_bg fleet_pressure ./build/bench/bench_fleet "$FLEET_PRESSURE"

# Deterministic SMP (DESIGN.md §16): the same fleet across 4 virtual CPUs,
# with the per-lock contention table on stdout. Multi-CPU worlds must be
# exactly as byte-reproducible as single-CPU ones, plain and
# pressure-soaked.
double_run_bg fleet_smp ./build/bench/bench_fleet --cpus=4 --locks
double_run_bg fleet_smp_pressure ./build/bench/bench_fleet --cpus=4 --locks "$FLEET_PRESSURE"

# Chaos engine (DESIGN.md §17): the fleet under a composed fault storm with
# a fuzzed schedule, on a fixed op budget, once per schedule strategy. Every
# armed run must be exactly as byte-reproducible as the happy path — the
# double-run compare is the whole point of deterministic chaos.
for sched in rr random:3 burst:5 pct3:7 pb16; do
  double_run_bg "chaos_$(echo "$sched" | tr : _)" \
    ./build/bench/bench_chaos --ops=60000 --cpus=4 --shared --sched="$sched"
done

# The plan shrinker, subprocess-free: a synthetic failure predicate the
# shrinker must reduce to its minimal scenario, deterministically enough to
# byte-compare, ending in a well-formed repro string.
double_run_bg chaos_shrink ./build/bench/bench_chaos --shrink-demo

# The five examples with their default arguments (trace_replay runs its
# built-in demo trace): their stdout is as deterministic as a bench's.
for example in quickstart fork_farm zero_copy_pipeline webserver trace_replay; do
  double_run_bg "example_${example}" "./build/examples/${example}"
done

double_run_failed=0
for pid in $double_run_pids; do
  wait "$pid" || double_run_failed=1
done
if [ "$double_run_failed" != 0 ]; then
  echo "ci.sh: a fleet/chaos/example double run failed (see above)" >&2
  exit 1
fi
grep -q '^repro: uvmchaos/v1|' build/chaos_shrink_a.txt

# "Same bytes" for every fleet, chaos and example run above, and for the
# vmbench fingerprint lines: each first run's stdout must hash to its
# committed value. sha256sum prints a FAILED line naming each run whose
# output moved; a change that moves one must update
# BENCH_fleet_chaos.sha256 and say why in CHANGES.md.
if ! sha256sum -c --quiet BENCH_fleet_chaos.sha256; then
  echo "ci.sh: fleet/chaos/example/vmbench output moved from BENCH_fleet_chaos.sha256 (see FAILED above)" >&2
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
# exactly, and every micro and workload timing must stay within +25% of its
# committed value. Timings are in reference-host units (each item's median
# of five runs over the host slowdown measured during the same run), so a
# slow or drifting host does not move them; re-record BENCH_host.json with
# this command when an intended change moves one, and say why in CHANGES.md.
./build/bench/bench_host_perf --out build/BENCH_host.json
python3 scripts/diff_bench_host.py BENCH_host.json build/BENCH_host.json
