#!/usr/bin/env python3
"""The perf gate's decision rule (tools/pgss_perf_gate.py) on synthetic
runs; no simulator runs. ctest runs this file as test_perf_gate."""

import importlib.util
import os
import unittest

_spec = importlib.util.spec_from_file_location(
    "pgss_perf_gate",
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                 "tools", "pgss_perf_gate.py"))
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

EXACT = ("pgss_err_amean",)


def run(side, pair, norm, failed=0, err=0.25, **over):
    rec = {"side": side, "pair": pair, "seed": pair, "exit": 0,
           "correct": failed == 0, "attempted": 100, "failed": failed,
           "digest_fnv1a": f"{pair:016x}",
           "metrics": {"norm_pass_s": norm, "pgss_err_amean": err}}
    rec.update(over)
    return rec


def workload(ratios, base_norm=0.5):
    """Five pairs whose head/base norm_pass_s ratios are @p ratios."""
    runs = []
    for pair, ratio in enumerate(ratios, 1):
        runs += [run("base", pair, base_norm),
                 run("head", pair, base_norm * ratio)]
    return runs


class Decide(unittest.TestCase):
    def test_median_below_bound_passes(self):
        failures, summary = gate.decide(
            {"pgss_suite": workload([1.2, 0.9, 1.09, 1.0, 1.15]),
             "ground_truth": workload([1.0] * 5)}, EXACT)
        self.assertEqual(failures, [])
        self.assertAlmostEqual(summary["pgss_suite"]["median_ratio"],
                               1.09)

    def test_median_above_bound_fails_naming_workload(self):
        failures, summary = gate.decide(
            {"pgss_suite": workload([1.0] * 5),
             "technique_sweep": workload([1.0, 1.11, 1.11, 1.3, 0.9])},
            EXACT)
        self.assertEqual(len(failures), 1, failures)
        self.assertIn("technique_sweep", failures[0])
        self.assertIn("1.110", failures[0])
        self.assertAlmostEqual(
            summary["technique_sweep"]["median_ratio"], 1.11)

    def test_broken_run_on_either_side_fails(self):
        for side in ("base", "head"):
            for broken, words in (({"exit": 1}, "exited 1"),
                                  ({"metrics": None}, "no result"),
                                  ({"metrics": {"setup_s": 0.05}},
                                   "no norm_pass_s")):
                runs = workload([1.0] * 5)
                victim = next(r for r in runs if r["side"] == side)
                victim.update(broken)
                failures, _ = gate.decide({"pgss_suite": runs}, EXACT)
                self.assertTrue(
                    any(words in f and side in f for f in failures),
                    (side, broken, failures))

    def test_no_complete_pair_fails(self):
        runs = [r for r in workload([1.0] * 5) if r["side"] == "base"]
        failures, summary = gate.decide({"pgss_suite": runs}, EXACT)
        self.assertTrue(failures)
        self.assertIsNone(summary["pgss_suite"]["median_ratio"])

    def test_larger_failed_share_on_head_fails(self):
        runs = workload([1.0] * 5)
        runs[1].update(failed=1)  # pair 1, head
        failures, _ = gate.decide({"pgss_suite": runs}, EXACT)
        self.assertEqual(len(failures), 1, failures)
        self.assertIn("head failed", failures[0])

        # The same share on both sides is not the head's doing.
        runs[0].update(failed=1)
        self.assertEqual(gate.decide({"pgss_suite": runs}, EXACT)[0], [])

    def test_changed_accuracy_metric_is_reported_not_gated(self):
        runs = workload([1.0] * 5)
        for r in runs:
            if r["side"] == "head":
                r["metrics"]["pgss_err_amean"] = 0.3
                r["digest_fnv1a"] = "0"
        failures, summary = gate.decide({"pgss_suite": runs}, EXACT)
        self.assertEqual(failures, [])
        s = summary["pgss_suite"]
        self.assertEqual(s["changed"], ["digest_fnv1a", "pgss_err_amean"])
        self.assertEqual(s["medians"]["base"]["pgss_err_amean"], 0.25)
        self.assertEqual(s["medians"]["head"]["pgss_err_amean"], 0.3)


if __name__ == "__main__":
    unittest.main()
