#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that every workload in BENCHMARK.json runs untraced and traced, passes
its correctness checks, and prints every metric BENCHMARK.json names with
its unit; then that a deliberately wrong reference (one extra UPDATE) makes
the durable workload's snapshot check fail. Exits nonzero on any failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    return out.returncode, json.loads(lines[-1]) if lines else None, out.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for w in bench["workloads"]:
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            rc, result, text = run(w["name"], trace)
            where = f"{w['name']} --trace {trace}"
            if rc != 0 or not result or not result["correct"] or result["failed"]:
                errors.append(f"{where}: rc={rc}, output:\n{text}")
                continue
            got = result["metrics"]
            want = {m["name"]: m["unit"] for m in listed}
            if set(got) != set(want):
                errors.append(f"{where}: metrics {sorted(set(got) ^ set(want))} "
                              "missing or unexpected")
            for name, unit in want.items():
                if name in got and got[name]["unit"] != unit:
                    errors.append(f"{where}: {name} unit {got[name]['unit']} != {unit}")
            print(f"ok   {where}: {len(got)} metrics", flush=True)
    rc, result, text = run("pgbench-rw-durable", 0, "--wrong-reference")
    if rc == 0 or not result or result["correct"] or "reference" not in text:
        errors.append(f"wrong reference was not caught: rc={rc}, output:\n{text}")
    else:
        print("ok   pgbench-rw-durable --wrong-reference: snapshot check failed "
              "as it must", flush=True)
    for e in errors:
        print("FAIL " + e)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
