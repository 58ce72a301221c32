#!/usr/bin/env python3
"""Build PGSS-Sim and run one workload of its end-to-end benchmark.

    python3 pgssbench/run.py --workload pgss_suite --seed 1 --seconds 25 --trace 0

Run it from a checkout of the repository. The first run compiles the
simulator from src/ into .bench_build/ and fills the benchmark's own
ground-truth cache there for every suite program and input variant;
later runs reuse both. Build output goes to stderr; the last line of
stdout is the result JSON. README.md beside this file documents the
workloads, the metrics and the traced run.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("pgss_suite", "technique_sweep", "ground_truth")

# Workload scale; 1.0 is the suite's nominal length. README.md
# ("Scale") explains the choice.
SCALE = "0.02"


def log(msg):
    print(f"pgssbench: {msg}", file=sys.stderr, flush=True)


def step(cmd, env=None):
    """Run a build or preparation step; its output goes to stderr."""
    subprocess.run(cmd, stdout=sys.stderr, env=env, check=True)


def build():
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", BUILD_DIR, "--target", "pgss_e2e",
          "-j", str(min(4, os.cpu_count() or 1))])
    return os.path.join(BUILD_DIR, "pgss_e2e")


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="varies the TurboSMARTS draw order only")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="host time the timed passes run for")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the traced run, printing per-layer metrics")
    ap.add_argument("--input", type=int, choices=(0, 1, 2), default=0,
                    help="program input variant; 1 and 2 are held out")
    ap.add_argument("--scale", default=SCALE,
                    help="workload scale (the tests use a tiny one)")
    ap.add_argument("--fail-op", type=int, default=0,
                    help="fail the K-th operation on purpose (tests)")
    args = ap.parse_args()
    if args.seed < 0 or args.fail_op < 0 or not args.seconds > 0:
        ap.error("--seed and --fail-op must be >= 0 and --seconds > 0")
    return args


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no simulator sources in {ROOT}/src; run from a checkout")
        return 2
    # PGSS_* variables (scale, backend, fault injection, ...) change
    # what the simulator does; the benchmark fixes all of that itself.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PGSS_")}
    binary = build()
    cache = os.path.join(BUILD_DIR, "profile_cache_" + args.scale)
    prepared = os.path.join(cache, "prepared")
    if not os.path.exists(prepared):
        step([binary, "prepare", "--cache", cache, "--scale", args.scale],
             env=env)
        os.makedirs(cache, exist_ok=True)
        with open(prepared, "w"):
            pass
    cmd = [binary, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--input", str(args.input),
           "--cache", cache, "--scale", args.scale]
    if args.fail_op:
        cmd += ["--fail-op", str(args.fail_op)]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"failed: {e}")
        sys.exit(1)
