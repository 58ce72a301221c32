#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread the way its acceptance rule does.

    python3 pgssbench/spread.py                         # 10 seeds, every workload
    python3 pgssbench/spread.py --runs 5 --workloads technique_sweep

Each workload runs --runs times, with seeds 1..runs and the run length
from BENCHMARK.json. Per end-to-end metric it prints the median and
the spread (Q3 - Q1) / median, with the quartiles that
statistics.quantiles(values, n=4) gives, beside the metric's bound. A
spread must stay within its bound (setup_s excepted); the benchmark
aims for a third of it. Each run's elapsed time, pass count, raw
wall-clock pass times and reference-kernel time follow. --trace 1
summarises traced runs instead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    section = "per_layer" if args.trace else "end_to_end"
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in range(1, args.runs + 1):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            values.setdefault("run elapsed (s)", []).append(
                time.monotonic() - t0)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            lines = proc.stdout.splitlines()
            res = json.loads(lines[-1])
            ok = ok and res["correct"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            # The raw wall-clock pass times and the reference kernel's
            # time, printed beside norm_pass_s for comparison.
            for line in lines:
                if line.startswith("passes "):
                    fields = line.split()
                    for key, value in zip(fields[::2], fields[1::2]):
                        values.setdefault(key, []).append(float(value))
        print(f"{workload}: {args.runs} runs, correct={ok}")
        extra = [{"name": n} for n in
                 ("run elapsed (s)", "passes", "wall_min_s",
                  "wall_median_s", "ref_kernel_ms")
                 if n in values]
        for m in spec[section] + extra:
            vals = values[m["name"]]
            med = statistics.median(vals)
            line = f"  {m['name']:<32} median {med:<12.6g}"
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / abs(med)
                line += f" spread {spread:.4f}"
                if "bound" in m:
                    verdict = "ok" if spread <= m["bound"] / 3 else (
                        "within bound" if spread <= m["bound"] else "WIDE")
                    line += f" bound {m['bound']} {verdict}"
            print(line + "  " + " ".join(f"{v:.6g}" for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
