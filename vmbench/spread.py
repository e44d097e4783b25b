#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

    python3 vmbench/spread.py [--workloads fork,filemap,paging] [--runs 10] [--first-seed 1]
                              [--out FILE] [--baseline FILE]

Runs vmbench/run.py --trace 0 once per seed (first-seed, first-seed+1, ...) on
each workload, one run at a time, for the run_seconds BENCHMARK.json gives.
For every end-to-end metric it prints the median and the quartile spread,
(q3 - q1) / median with Python's statistics.quantiles(values, n=4), beside
the metric's bound: "steady" below a third of the bound, "wide" above the
bound. --out saves the raw values as JSON; --baseline compares this set's
medians with a saved set and flags any metric worse by more than its bound.
Exits 1 if a run fails or is incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"spread.py: {' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"spread.py: {workload} seed {seed} is not correct")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(metric, base, new):
    """How much worse `new` is than `base`, as a share of `base`."""
    change = (new - base) / base if base else 0.0
    return change if metric["better"] == "lower" else -change


def main():
    p = argparse.ArgumentParser(description="Measure the benchmark's run-to-run spread.")
    p.add_argument("--workloads", default="fork,filemap,paging")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--baseline")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    baseline = {}
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)
    values = {}
    for wl in args.workloads.split(","):
        values[wl] = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.runs):
            for name, v in run_once(wl, args.first_seed + i, spec["run_seconds"]).items():
                values[wl][name].append(v)
        print(f"{wl}: {args.runs} runs")
        for m in spec["end_to_end"]:
            v = values[wl][m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = ("steady" if spread < m["bound"] / 3 else
                       "within bound" if spread <= m["bound"] else "wide")
            line = (f"  {m['name']:<20} median {med:12.4f} {m['unit']:<9} spread {spread:7.4f}"
                    f"  bound {m['bound']:.2f}  {verdict}")
            if wl in baseline:
                drift = worse_by(m, statistics.median(baseline[wl][m["name"]]), med)
                line += f"  vs baseline {drift:+.4f}{'  WORSE' if drift > m['bound'] else ''}"
            print(line, flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)


if __name__ == "__main__":
    main()
