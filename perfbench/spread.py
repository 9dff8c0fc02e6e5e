#!/usr/bin/env python3
"""Measures run-to-run spread of the end-to-end metrics on one workload.

    python3 perfbench/spread.py --workload pgbench-ro [--seeds 10] [--first-seed 1]

Runs perfbench/run.py once per seed (untraced, run_seconds from
BENCHMARK.json) and prints, per end-to-end metric, the median, the
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median
against the metric's bound. A benchmark is steady when every spread except
setup_s's stays below a third of its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, check=False, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if not lines:
            sys.exit(f"seed {seed}: no result (exit {out.returncode}):\n{out.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: run marked incorrect:\n{out.stdout}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)
    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
        print(f"{m['name']:<18} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{m['bound']:6.3f}{flag}")


if __name__ == "__main__":
    main()
