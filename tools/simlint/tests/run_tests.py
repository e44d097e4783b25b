#!/usr/bin/env python3
"""Fixture tests for tools/simlint/simlint.py (stdlib unittest; no pytest).

The fixtures under tests/fixtures/ form a miniature repo root. Each known-bad
file carries `LINE-<TAG>` markers on the lines simlint must flag; known-clean
files must produce no findings at all. The suite asserts the *exact* finding
set — extra findings are failures too, so rule regressions in either
direction are caught.
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import simlint  # noqa: E402

FIXTURES = os.path.join(HERE, "fixtures")


def marker_line(relpath: str, tag: str) -> int:
    """1-based line number of the `LINE-<TAG>` marker comment in a fixture."""
    with open(os.path.join(FIXTURES, relpath), "r", encoding="utf-8") as f:
        for i, line in enumerate(f, start=1):
            if "LINE-" + tag in line:
                return i
    raise AssertionError(f"marker LINE-{tag} not found in {relpath}")


class SimlintFixtureTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        repo = simlint.Repo(FIXTURES)
        findings = simlint.collect_findings(repo)
        cls.found = {(f.rule, f.path, f.line) for f in findings}
        cls.findings = findings

    def expect(self, rule, relpath, tag):
        triple = (rule, relpath, marker_line(relpath, tag))
        self.assertIn(
            triple,
            self.found,
            f"expected {rule} at {relpath} marker LINE-{tag}; got:\n"
            + "\n".join(f.render() for f in self.findings),
        )
        return triple

    def test_exact_finding_set(self):
        expected = {
            self.expect("det-unordered-iter", "src/core/bad_unordered.cc", "RANGE-FOR"),
            self.expect("det-unordered-iter", "src/core/bad_unordered.cc", "BEGIN"),
            self.expect("det-ptr-container", "src/core/bad_ptr_set.h", "PTR-SET"),
            self.expect("det-ptr-container", "src/core/bad_ptr_set.h", "PTR-MAP"),
            self.expect("det-host-nondet", "src/core/bad_nondet.cc", "RANDOM-DEVICE"),
            self.expect("det-host-nondet", "src/core/bad_nondet.cc", "MT19937"),
            self.expect("det-host-nondet", "src/core/bad_nondet.cc", "CHRONO"),
            self.expect("det-host-nondet", "src/core/bad_nondet.cc", "HOSTRAND"),
            self.expect("cost-no-charge", "src/core/bad_cost.cc", "MEMCPY"),
            self.expect("cost-no-charge", "src/core/bad_cost.cc", "PRIMITIVE"),
            self.expect("layer-upward-include", "src/phys/bad_layering.h", "UPWARD"),
            self.expect("layer-upward-include", "src/bsdvm/bad_sibling.h", "SIBLING"),
            self.expect("pool-exhaustion-assert", "src/core/bad_pool_assert.cc", "POOL-ASSERT"),
            self.expect("pool-exhaustion-assert", "src/core/bad_pool_assert.cc", "POOL-PANIC"),
            self.expect("pool-naked-alloc", "src/core/bad_pool_alloc.cc", "NAKED-NEW-ANON"),
            self.expect("pool-naked-alloc", "src/core/bad_pool_alloc.cc", "NAKED-NEW-AMAP"),
            self.expect("pool-naked-alloc", "src/core/bad_pool_alloc.cc", "NAKED-NEW-OBJECT"),
            self.expect("pool-naked-alloc", "src/core/bad_pool_alloc.cc", "NAKED-MAKE-UNIQUE"),
            self.expect("pool-naked-alloc", "src/core/bad_pool_alloc.cc", "NAKED-NEW-PV"),
            self.expect("pool-naked-alloc", "src/core/bad_pool_alloc.cc", "NAKED-NEW-PTTABLE"),
            self.expect("poison-direct-write", "src/core/bad_poison.cc", "POISON-ARROW"),
            self.expect("poison-direct-write", "src/core/bad_poison.cc", "POISON-DOT"),
            self.expect("naked-lock-charge", "src/core/bad_lock.cc", "NAKED-CHARGE"),
            self.expect("unbalanced-lock-scope", "src/core/bad_lock.cc", "DANGLING-ACQUIRE"),
            self.expect("unbalanced-lock-scope", "src/core/bad_lock.cc", "DANGLING-LOCK"),
            self.expect("scheduler-raw-switch", "src/core/bad_sched.cc", "RAW-SWITCH"),
            self.expect("scheduler-raw-switch", "src/core/bad_sched.cc", "RAW-SETNOW"),
            self.expect("scheduler-raw-switch", "src/core/bad_sched.cc", "RAW-SETCPU"),
            self.expect("chaos-undecorrelated-stream", "src/sim/chaos_bad.cc", "RAW-SEED"),
            self.expect("chaos-undecorrelated-stream", "src/sim/chaos_bad.cc", "FIXED-SEED"),
            self.expect("chaos-undecorrelated-stream", "src/sim/chaos_bad.cc", "RESEED"),
        }
        extra = self.found - expected
        self.assertFalse(
            extra,
            "unexpected findings (clean fixtures or annotated lines flagged):\n"
            + "\n".join(sorted(f"{r} {p}:{l}" for r, p, l in extra)),
        )

    def test_clean_files_are_clean(self):
        clean = {
            "src/core/clean_unordered.cc",
            "src/core/clean_ptr_set.h",
            "src/core/clean_cost.cc",
            "src/core/clean_pool_assert.cc",
            "src/core/clean_pool_alloc.cc",
            "src/core/clean_poison.cc",
            "src/core/clean_lock.cc",
            "src/core/clean_sched.cc",
            "src/phys/phys_mem.cc",  # poison-direct-write exempt path
            "src/bsdvm/clean_layering.h",
            "src/sim/rng.h",  # det-host-nondet exempt path
            "src/sim/chaos_clean.cc",
        }
        dirty = {p for _, p, _ in self.found if p in clean}
        self.assertFalse(dirty, f"clean fixtures produced findings: {sorted(dirty)}")

    def test_annotation_suppresses_nondet(self):
        # AnnotatedHostNow in bad_nondet.cc uses steady_clock behind a
        # SIM_HOST_TIME_OK comment: exactly one chrono finding in that file.
        chrono = [
            (r, p, l)
            for (r, p, l) in self.found
            if r == "det-host-nondet" and p == "src/core/bad_nondet.cc"
            and l == marker_line("src/core/bad_nondet.cc", "CHRONO")
        ]
        self.assertEqual(len(chrono), 1)

    def test_cli_exit_codes(self):
        missing_baseline = os.path.join(FIXTURES, "no_such_baseline.json")
        rc_dirty = simlint.main(
            ["--all", "--root", FIXTURES, "--baseline", missing_baseline, "-q"]
        )
        self.assertEqual(rc_dirty, 1, "findings without a baseline must exit 1")
        repo_root = os.path.dirname(os.path.dirname(os.path.dirname(HERE)))
        rc_clean = simlint.main(["--all", "--root", repo_root, "-q"])
        self.assertEqual(rc_clean, 0, "the real tree must lint clean")


if __name__ == "__main__":
    unittest.main(verbosity=2)
