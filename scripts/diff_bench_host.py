#!/usr/bin/env python3
"""Compare a fresh BENCH_host.json against the committed baseline.

Field classes:
  - deterministic (workloads.*.* except host_ms): virtual-time totals and
    lookup counters, identical on every machine. They must match the
    baseline exactly.
  - host times (workloads.*.host_ms and micro.*.ns_per_op): in
    reference-host units, i.e. each item's median host time divided by the
    host slowdown bench_host_perf measured during the same run. The check
    fails when the current run is more than 25% slower than the baseline
    AND the absolute slip exceeds a small noise floor (tiny timings jitter
    by large ratios). A baseline timing missing from the current run fails
    too: an item that is no longer measured is no longer gated.

Usage: diff_bench_host.py BASELINE CURRENT
"""

import json
import sys

TOLERANCE = 0.25

# Absolute slack added on top of the relative tolerance: a 2 ns/op micro or
# a 3 ms workload can move 25% on scheduler noise alone.
ABS_FLOOR_NS_PER_OP = 20.0
ABS_FLOOR_HOST_MS = 2.0


def deterministic(doc):
    out = {}
    for vm, workloads in sorted(doc.get("workloads", {}).items()):
        for name, fields in sorted(workloads.items()):
            for key, value in sorted(fields.items()):
                if key != "host_ms":
                    out[f"workloads.{vm}.{name}.{key}"] = value
    return out


def host_times(doc):
    """Gated host timings: workload wall times and micro costs."""
    out = {}
    for vm, workloads in sorted(doc.get("workloads", {}).items()):
        for name, fields in sorted(workloads.items()):
            if "host_ms" in fields:
                out[f"workloads.{vm}.{name}.host_ms"] = (
                    float(fields["host_ms"]), ABS_FLOOR_HOST_MS)
    for name, fields in sorted(doc.get("micro", {}).items()):
        if "ns_per_op" in fields:
            out[f"micro.{name}.ns_per_op"] = (
                float(fields["ns_per_op"]), ABS_FLOOR_NS_PER_OP)
    return out


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        baseline = json.load(f)
    with open(sys.argv[2]) as f:
        current = json.load(f)

    failures = []

    base_det = deterministic(baseline)
    cur_det = deterministic(current)
    for key in sorted(set(base_det) | set(cur_det)):
        b, c = base_det.get(key), cur_det.get(key)
        if b != c:
            failures.append(f"deterministic field {key}: baseline={b} current={c}")

    base_host = host_times(baseline)
    cur_host = host_times(current)
    worst = (0.0, "")
    for key, (b, abs_floor) in sorted(base_host.items()):
        if key not in cur_host:
            failures.append(f"host timing {key}: in the baseline, missing from current run")
            continue
        c = cur_host[key][0]
        ratio = c / b if b > 0 else float("inf")
        worst = max(worst, (ratio, key))
        if c > b * (1.0 + TOLERANCE) and c - b > abs_floor:
            failures.append(
                f"host regression {key}: baseline={b:.2f} current={c:.2f} "
                f"(+{(ratio - 1.0) * 100.0:.0f}%, tolerance {TOLERANCE * 100.0:.0f}%)")

    if failures:
        print("BENCH_host comparison FAILED:")
        for f_ in failures:
            print(f"  {f_}")
        return 1
    print(f"BENCH_host comparison OK: {len(base_det)} deterministic fields identical, "
          f"{len(base_host)} host timings within +{TOLERANCE * 100.0:.0f}% "
          f"(largest ratio {worst[0]:.2f}, {worst[1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
