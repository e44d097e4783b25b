#!/usr/bin/env python3
"""Fixture test for scripts/diff_bench_host.py.

Demonstrates the host-perf regression gate end-to-end without running the
bench binary: a synthetic baseline is compared against (a) an identical
current run (must pass), (b) a run whose host timings are inflated past
the 25% tolerance (must fail and name the regressed fields), (b') a run
slipping inside the tolerance (must pass), (c) a run with a mutated
deterministic counter (must fail), and (d) a run missing a micro the
baseline times (must fail and name it). Run by ci.sh.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

DIFF = os.path.join(os.path.dirname(__file__), "..", "diff_bench_host.py")

BASELINE = {
    "workloads": {
        "uvm": {
            "map_heavy": {"host_ms": 40.0, "vtime_ns": 40868000,
                          "map_lookup_probes": 320800, "map_hint_hits": 195},
            "fault_heavy": {"host_ms": 50.0, "vtime_ns": 45745560, "faults": 4096},
        },
        "bsdvm": {
            "map_heavy": {"host_ms": 38.0, "vtime_ns": 41171200,
                          "map_lookup_probes": 320800, "map_hint_hits": 195},
        },
    },
    "micro": {
        "map_lookup_1000": {"ns_per_op": 160.0},
        "map_mutate_1000": {"ns_per_op": 480.0},
        "pagestore_lookup_64k": {"ns_per_op": 52.0},
        "pv_churn": {"ns_per_op": 58.0},
        "pool_anon_churn": {"ns_per_op": 5.4},
        "pool_object_churn": {"ns_per_op": 8.0},
        "pagestore_churn": {"ns_per_op": 122.0},
    },
}


def run_diff(tmp, baseline, current):
    bpath = os.path.join(tmp, "baseline.json")
    cpath = os.path.join(tmp, "current.json")
    with open(bpath, "w") as f:
        json.dump(baseline, f)
    with open(cpath, "w") as f:
        json.dump(current, f)
    return subprocess.run([sys.executable, DIFF, bpath, cpath],
                          capture_output=True, text=True)


def expect(cond, label, proc):
    if not cond:
        print(f"FAIL: {label}")
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        sys.exit(1)
    print(f"ok: {label}")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        # (a) identical run passes.
        p = run_diff(tmp, BASELINE, copy.deepcopy(BASELINE))
        expect(p.returncode == 0, "identical run passes", p)

        # (b) host times inflated by 2x: gate must fire on both a workload
        # wall time and a micro cost, naming them.
        slow = copy.deepcopy(BASELINE)
        slow["workloads"]["uvm"]["map_heavy"]["host_ms"] = 80.0
        slow["micro"]["map_lookup_1000"]["ns_per_op"] = 320.0
        p = run_diff(tmp, BASELINE, slow)
        expect(p.returncode == 1, "2x host regression fails", p)
        expect("host regression workloads.uvm.map_heavy.host_ms" in p.stdout,
               "regressed workload named", p)
        expect("host regression micro.map_lookup_1000.ns_per_op" in p.stdout,
               "regressed micro named", p)

        # (b') a slip inside the tolerance band passes (+10% < +25%).
        mild = copy.deepcopy(BASELINE)
        mild["workloads"]["uvm"]["map_heavy"]["host_ms"] = 44.0
        p = run_diff(tmp, BASELINE, mild)
        expect(p.returncode == 0, "+10% host slip tolerated", p)

        # (c) a deterministic counter drift is always fatal.
        drift = copy.deepcopy(BASELINE)
        drift["workloads"]["uvm"]["map_heavy"]["vtime_ns"] = 40868001
        p = run_diff(tmp, BASELINE, drift)
        expect(p.returncode == 1, "deterministic drift fails", p)
        expect("workloads.uvm.map_heavy.vtime_ns" in p.stdout,
               "drifted field named", p)

        # (d) a micro the baseline times but the current run lacks is fatal:
        # otherwise deleting a micro would silently stop gating it.
        missing = copy.deepcopy(BASELINE)
        del missing["micro"]["pv_churn"]
        p = run_diff(tmp, BASELINE, missing)
        expect(p.returncode == 1, "missing micro fails", p)
        expect("micro.pv_churn.ns_per_op" in p.stdout, "missing micro named", p)

    print("test_diff_bench_host: all cases passed")


if __name__ == "__main__":
    main()
