#!/usr/bin/env python3
"""Host cost of the repo's own runs: wall, user and sys time per command.

Runs, one after another from a build directory: the ctest suite, the eight
paper benches, bench_fleet and the five examples, each with its default
arguments and its stdout discarded. A single timing cannot resolve a
10-20% change (bench_fig6_fork read 5.3-7.7 s wall over six runs of one
binary), so the whole list runs 5 times, round-robin: a slow minute of the
host then touches every command alike, and the script takes about five
times as long as one pass (80 s from a RelWithDebInfo build on a 4-core
host). User and sys time are the RUSAGE_CHILDREN deltas around each
command, so they include every process the command waited for (ctest's
test processes too). Prints one row per command with the median and the
min-max of its 5 rounds, then the same for the totals of the paper
benches, the examples and everything.

This is a measuring tool, not a gate: host speed drifts 20-40% over
minutes, so only alternating runs of two trees support a comparison.

Usage: host_times.py [--build DIR] [--out FILE]
  --build DIR   build directory to run from (default: build)
  --out FILE    also write every round's rows and totals, and the medians,
                as JSON
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROUNDS = 5
FIELDS = ("wall_s", "user_s", "sys_s")

PAPER_BENCHES = [
    "bench_table1_map_entries",
    "bench_table2_fault_counts",
    "bench_table3_map_fault_unmap",
    "bench_fig2_object_cache",
    "bench_fig5_anon_alloc",
    "bench_fig6_fork",
    "bench_sec7_loanout",
    "bench_ablation",
]
EXAMPLES = ["quickstart", "fork_farm", "zero_copy_pipeline", "webserver", "trace_replay"]


def commands(build):
    """(group, name, argv) for every command, in run order."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    out = [("ctest", "ctest", ["ctest", "--test-dir", build, "-j", jobs, "--output-on-failure"])]
    out += [("paper_benches", b, [os.path.join(build, "bench", b)]) for b in PAPER_BENCHES]
    out.append(("fleet", "bench_fleet", [os.path.join(build, "bench", "bench_fleet")]))
    out += [("examples", e, [os.path.join(build, "examples", e)]) for e in EXAMPLES]
    return out


def timed(argv):
    """Run argv with stdout discarded; return (wall_s, user_s, sys_s)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic()
    r = subprocess.run(argv, stdout=subprocess.DEVNULL)
    wall = time.monotonic() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if r.returncode != 0:
        sys.exit(f"host_times: {' '.join(argv)} exited {r.returncode}")
    return wall, after.ru_utime - before.ru_utime, after.ru_stime - before.ru_stime


def total(rows):
    return {k: round(sum(r[k] for r in rows), 3) for k in FIELDS}


def totals(rows):
    out = {g: total([r for r in rows if r["group"] == g]) for g in ("paper_benches", "examples")}
    out["all"] = total(rows)
    return out


def summary(samples):
    """{field: {median, min, max}} over a list of {field: seconds} dicts."""
    return {k: {"median": round(statistics.median(s[k] for s in samples), 3),
                "min": min(s[k] for s in samples), "max": max(s[k] for s in samples)}
            for k in FIELDS}


def print_row(name, stats):
    cells = "".join(f" {stats[k]['median']:8.2f} [{stats[k]['min']:6.2f}-{stats[k]['max']:6.2f}]"
                    for k in FIELDS)
    print(f"{name:<30}{cells}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build", default="build")
    ap.add_argument("--out")
    args = ap.parse_args()

    cmds = commands(args.build)
    rounds = []
    for r in range(ROUNDS):
        rows = []
        for group, name, argv in cmds:
            wall, user, sys_s = timed(argv)
            rows.append({"group": group, "name": name, "wall_s": round(wall, 3),
                         "user_s": round(user, 3), "sys_s": round(sys_s, 3)})
        rounds.append({"commands": rows, "totals": totals(rows)})
        print(f"round {r + 1}/{ROUNDS}: {rounds[-1]['totals']['all']['wall_s']:.2f} s wall",
              file=sys.stderr, flush=True)

    medians = {name: summary([rd["commands"][i] for rd in rounds])
               for i, (_, name, _) in enumerate(cmds)}
    medians.update({"total " + g: summary([rd["totals"][g] for rd in rounds])
                    for g in rounds[0]["totals"]})
    print(f"{'command (median [min-max])':<30}" +
          "".join(f" {k:>8} {'':>15}" for k in FIELDS).rstrip())
    for name, stats in medians.items():
        print_row(name, stats)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"build": args.build, "rounds": rounds, "medians": medians}, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
