#!/usr/bin/env python3
"""Run the eight paper benches and emit BENCH_virtual.json.

All of these benches report *virtual* time, so their stdout is
byte-deterministic on any host. This script enforces that and records a
fingerprint per bench:

  1. each bench is run twice; the two outputs must be byte-identical
  2. each bench is run a third time with --trace=FILE; its stdout must be
     byte-identical to the untraced runs (tracing is observer-effect-free)
  3. every trace file must be valid JSON in Chrome-trace shape, and
     tools/traceview must summarize it (exit 0)

With --pressure SPEC, every bench run gets --pressure=SPEC appended: the
same determinism checks then apply to the benches *under memory pressure*
(shrinking/growing phys and swap at virtual-time points, emergency
reserves, the out-of-swap killer). Pressure changes the numbers but must
never change the fact that two runs agree byte-for-byte.

--memfault SPEC and --audit MS forward the same way (--memfault=SPEC,
--audit=MS): seeded memory-error injection plus periodic cross-layer
audits. Containment (discard/refetch, poison kills, loan revocation) and
auditing are part of the simulation, so armed runs must be exactly as
byte-deterministic as clean ones — and any audit violation aborts the
bench at the World shutdown audit, failing this script.

The JSON written to --out maps bench name -> {sha256, lines, bytes,
trace_events}, plus a toolchain-independent "observer_effect": "ok" marker
that only appears if every check above passed.

--expect FILE compares each bench's stdout sha256 with a committed JSON of
the same shape (BENCH_virtual.json, BENCH_pressure.json at the repo root)
and fails naming every bench whose fingerprint moved. --out is written
first, so an intended change is adopted by copying it over the baseline.

Usage: bench_virtual_json.py --bindir build/bench --out build/BENCH_virtual.json
                             [--expect BENCH_virtual.json]
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

BENCHES = [
    "bench_table1_map_entries",
    "bench_table2_fault_counts",
    "bench_table3_map_fault_unmap",
    "bench_fig2_object_cache",
    "bench_fig5_anon_alloc",
    "bench_fig6_fork",
    "bench_sec7_loanout",
    "bench_ablation",
]

HERE = os.path.dirname(os.path.abspath(__file__))
TRACEVIEW = os.path.join(HERE, "..", "tools", "traceview", "traceview.py")


def run(cmd):
    r = subprocess.run(cmd, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(f"bench_virtual: {' '.join(cmd)} exited {r.returncode}\n")
        sys.stderr.write(r.stderr)
        sys.exit(1)
    return r.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bindir", required=True, help="directory with bench binaries")
    ap.add_argument("--out", required=True, help="BENCH_virtual.json to write")
    ap.add_argument("--pressure", default=None, metavar="SPEC",
                    help="pressure plan forwarded to every bench as "
                         "--pressure=SPEC (e.g. '@1ms phys-=7000')")
    ap.add_argument("--memfault", default=None, metavar="SPEC",
                    help="memory-error plan forwarded to every bench as "
                         "--memfault=SPEC (e.g. '@5ms poison random:2')")
    ap.add_argument("--audit", default=None, metavar="MS", type=int,
                    help="run the cross-layer auditor every MS virtual ms, "
                         "forwarded to every bench as --audit=MS")
    ap.add_argument("--expect", default=None, metavar="FILE",
                    help="committed JSON whose per-bench sha256 every run "
                         "must reproduce")
    args = ap.parse_args()

    extra = []
    if args.pressure:
        extra.append(f"--pressure={args.pressure}")
    if args.memfault:
        extra.append(f"--memfault={args.memfault}")
    if args.audit is not None:
        extra.append(f"--audit={args.audit}")

    result = {}
    failures = []
    for name in BENCHES:
        exe = os.path.join(args.bindir, name)
        first = run([exe] + extra)
        second = run([exe] + extra)
        if first != second:
            failures.append(f"{name}: two untraced runs differ")

        with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
            trace_path = tmp.name
        try:
            traced = run([exe, f"--trace={trace_path}"] + extra)
            if traced != first:
                failures.append(f"{name}: stdout changed when tracing was enabled")
            with open(trace_path, encoding="utf-8") as f:
                doc = json.load(f)
            events = doc.get("traceEvents", [])
            if not isinstance(events, list):
                failures.append(f"{name}: trace has no traceEvents list")
                events = []
            summary = subprocess.run(
                [sys.executable, TRACEVIEW, "--top", "3", trace_path],
                capture_output=True,
                text=True,
            )
            if summary.returncode != 0:
                failures.append(f"{name}: traceview failed: {summary.stderr.strip()}")
        except json.JSONDecodeError as err:
            failures.append(f"{name}: trace is not valid JSON: {err}")
            events = []
        finally:
            os.unlink(trace_path)

        result[name] = {
            "sha256": hashlib.sha256(first.encode()).hexdigest(),
            "lines": first.count("\n"),
            "bytes": len(first),
            "trace_events": len(events),
        }
        print(f"  {name}: {result[name]['sha256'][:16]} "
              f"({result[name]['lines']} lines, {result[name]['trace_events']} trace events)")

    if failures:
        for f in failures:
            sys.stderr.write(f"bench_virtual: FAIL: {f}\n")
        sys.exit(1)

    result["observer_effect"] = "ok"
    if args.pressure:
        result["pressure_plan"] = args.pressure
    if args.memfault:
        result["memfault_plan"] = args.memfault
    if args.audit is not None:
        result["audit_every_ms"] = args.audit
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out} (all runs deterministic, tracing observer-effect-free)")

    if args.expect:
        with open(args.expect, encoding="utf-8") as f:
            expected = json.load(f)
        moved = [name for name in BENCHES
                 if expected.get(name, {}).get("sha256") != result[name]["sha256"]]
        for name in moved:
            sys.stderr.write(f"bench_virtual: FAIL: {name}: stdout sha256 moved from "
                             f"{expected.get(name, {}).get('sha256', 'none')} (in "
                             f"{args.expect}) to {result[name]['sha256']}\n")
        if moved:
            return 1
        print(f"all {len(BENCHES)} fingerprints match {args.expect}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
