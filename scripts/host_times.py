#!/usr/bin/env python3
"""Host cost of the repo's own runs: wall, user and sys time per command.

Runs, one after another from a build directory: the ctest suite, the eight
paper benches, bench_fleet and the five examples, each once with its
default arguments and its stdout discarded. User and sys time are the
RUSAGE_CHILDREN deltas around each command, so they include every process
the command waited for (ctest's test processes too). Prints one row per
command, then totals for the paper benches, the examples and everything.

This is a measuring tool, not a gate: host speed drifts 20-40% over
minutes, so only alternating runs of two trees support a comparison.

Usage: host_times.py [--build DIR] [--out FILE]
  --build DIR   build directory to run from (default: build)
  --out FILE    also write the rows and totals as JSON
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

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
    return {k: round(sum(r[k] for r in rows), 3) for k in ("wall_s", "user_s", "sys_s")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build", default="build")
    ap.add_argument("--out")
    args = ap.parse_args()

    rows = []
    print(f"{'command':<30} {'wall_s':>8} {'user_s':>8} {'sys_s':>8}")
    for group, name, argv in commands(args.build):
        wall, user, sys_s = timed(argv)
        rows.append({"group": group, "name": name, "wall_s": round(wall, 3),
                     "user_s": round(user, 3), "sys_s": round(sys_s, 3)})
        print(f"{name:<30} {wall:8.2f} {user:8.2f} {sys_s:8.2f}", flush=True)

    totals = {g: total([r for r in rows if r["group"] == g])
              for g in ("paper_benches", "examples")}
    totals["all"] = total(rows)
    for name, t in totals.items():
        print(f"{'total ' + name:<30} {t['wall_s']:8.2f} {t['user_s']:8.2f} {t['sys_s']:8.2f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"build": args.build, "commands": rows, "totals": totals}, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
