#!/usr/bin/env python3
"""Build and run the repository benchmark (see vmbench/README.md).

    python3 vmbench/run.py --workload fork|filemap|paging --seed N --seconds N --trace 0|1
    python3 vmbench/run.py --selftest

The benchmark binary is built from source with CMake into the directory named
by CARGO_TARGET_DIR (default .bench_build), relative to the repository root.
Build output goes to stderr. The binary's output passes through unchanged;
its last line is the JSON result, which this script checks against the
metrics BENCHMARK.json declares before exiting 0. Traced runs also leave the
recorded spans in <build dir>/vmbench-spans-<workload>.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fork", "filemap", "paging")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"vmbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure (once) and build the benchmark binary; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "vmbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "vmbench")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Problems with the result line, as a list of strings (empty when fine)."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"result keys are not {sorted(RESULT_KEYS)}"]
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    got = set(result["metrics"])
    want = declared_metrics(trace)
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json: missing {sorted(want - got)}, "
                        f"extra {sorted(got - want)}")
    return problems


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true",
                   help="run the benchmark's own self-tests instead of a workload")
    args = p.parse_args()
    if not args.selftest:
        if None in (args.workload, args.seed, args.seconds, args.trace):
            p.error("--workload, --seed, --seconds and --trace are required")
        if args.seed < 0 or args.seconds < 0:
            p.error("--seed and --seconds must not be negative")
    exe = build()
    if args.selftest:
        sys.exit(subprocess.run([exe, "--selftest"], timeout=RUN_TIMEOUT_S).returncode)
    cmd = [exe, f"--workload={args.workload}", f"--seed={args.seed}", f"--seconds={args.seconds}"]
    if args.trace:
        cmd += ["--traced", "--spans=" + os.path.join(build_dir(), f"vmbench-spans-{args.workload}.jsonl")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"benchmark exited with {proc.returncode}")
    problems = check_result(lines[-1], args.trace)
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("; ".join(problems))
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
