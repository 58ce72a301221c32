#!/usr/bin/env python3
"""Tests of the benchmark harness itself (not of the simulator).

    python3 pgssbench/test_bench.py

Every workload runs at a tiny scale with a short time budget, so the
file takes a few minutes on first use (build plus ground truth) and
about two minutes after that.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
TINY_SCALE = "0.01"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Functions of the simulator's output alone: identical on every run.
DETERMINISTIC = ("pgss_err_amean", "pgss_err_max", "pgss_detailed_ops",
                 "smarts_err_amean", "simpoint_err_amean")


def bench(workload, *extra, trace=0, seed=0):
    """Run the benchmark at the tiny scale; return (result, digest)."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace),
         "--scale", TINY_SCALE, *extra],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    digest = [line for line in lines if line.startswith("digest")]
    return json.loads(lines[-1]), digest


class BenchmarkTest(unittest.TestCase):
    def test_every_workload_prints_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    res, _ = bench(workload, trace=trace)
                    self.assertEqual(
                        sorted(res),
                        ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreater(res["attempted"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[section]}
                    got = {name: m["unit"]
                           for name, m in res["metrics"].items()}
                    self.assertEqual(got, want)

    def test_deterministic_metrics_and_digest_repeat_exactly(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a, a_digest = bench(workload, seed=1)
                b, b_digest = bench(workload, seed=1)
                c, _ = bench(workload, seed=2)
                self.assertTrue(a_digest)
                self.assertEqual(a_digest, b_digest)
                for name in DETERMINISTIC:
                    self.assertEqual(a["metrics"][name],
                                     b["metrics"][name])
                    # The seed must not move a metric: the benchmark's
                    # spread across seeds is timing noise alone.
                    self.assertEqual(a["metrics"][name],
                                     c["metrics"][name])

    def test_held_out_input_is_different_data(self):
        _, seen = bench("ground_truth")
        _, held_out = bench("ground_truth", "--input", "1")
        self.assertNotEqual(seen, held_out)

    def test_failed_operation_is_counted_not_fatal(self):
        res, _ = bench("pgss_suite", "--fail-op", "2")
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertGreater(res["attempted"], 2)
        self.assertIn("norm_pass_s", res["metrics"])

    def test_refuses_to_run_without_the_simulator_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "pgssbench"))
            proc = subprocess.run(
                [sys.executable, "pgssbench/run.py", "--workload",
                 "pgss_suite", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
