#!/usr/bin/env python3
"""Self-test of check_bench_regression.py: the guard's contract on
class-tagged bench rows. Stdlib unittest; run directly or via ctest
(check_bench_regression_selftest)."""

import contextlib
import copy
import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_regression as guard  # noqa: E402

BASELINE = {
    "bench": "demo",
    "host_cores": 4,
    "rows": [
        {"key": {"workload": "a", "threads": 1},
         "exact": {"completed": 16},
         "ratio": {"speedup": 2.0},
         "info": {"wall_ms": 10.0}},
        {"key": {"workload": "a", "threads": 2},
         "exact": {"completed": 16},
         "info": {"wall_ms": 6.0}},
    ],
}


def check(baseline, fresh):
    with contextlib.redirect_stdout(io.StringIO()):
        failures, _ = guard.compare(baseline, fresh)
    return failures


class GuardTest(unittest.TestCase):
    def setUp(self):
        self.fresh = copy.deepcopy(BASELINE)

    def assertFails(self, needle):
        failures = check(BASELINE, self.fresh)
        self.assertTrue(any(needle in f for f in failures),
                        f"{needle!r} not in {failures}")

    def test_identical_run_passes(self):
        self.assertEqual(check(BASELINE, self.fresh), [])

    def test_info_drift_and_slower_ratio_within_floor_pass(self):
        self.fresh["rows"][0]["info"]["wall_ms"] = 500.0
        self.fresh["rows"][0]["ratio"]["speedup"] = 1.0
        self.assertEqual(check(BASELINE, self.fresh), [])

    def test_exact_drift_fails(self):
        self.fresh["rows"][1]["exact"]["completed"] = 15
        self.assertFails("determinism break")

    def test_ratio_below_floor_fails(self):
        self.fresh["rows"][0]["ratio"]["speedup"] = 0.99
        self.assertFails("< floor")

    def test_missing_row_fails(self):
        del self.fresh["rows"][1]
        self.assertFails("row missing from fresh run")

    def test_exact_demoted_to_info_fails(self):
        row = self.fresh["rows"][1]
        row["info"]["completed"] = row["exact"].pop("completed")
        self.assertFails("completed is exact in baseline but info")

    def test_exact_absent_from_fresh_fails(self):
        del self.fresh["rows"][1]["exact"]["completed"]
        self.assertFails("completed is exact in baseline but absent")

    def test_duplicate_keys_fail(self):
        self.fresh["rows"].append(copy.deepcopy(self.fresh["rows"][0]))
        self.assertFails("duplicate row key in fresh run")

    def test_baseline_without_guarded_fields_fails(self):
        baseline = {"bench": "demo", "rows": [
            {"key": {"workload": "a"}, "info": {"wall_ms": 1.0}}]}
        failures = check(baseline, copy.deepcopy(baseline))
        self.assertTrue(any("no exact or ratio" in f for f in failures),
                        failures)


if __name__ == "__main__":
    unittest.main()
