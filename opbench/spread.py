#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

    python3 opbench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs the benchmark once per seed (first-seed, first-seed + 1, ...) and prints,
for every end-to-end metric, the median and the distance between the first
and third quartile as a share of the median (statistics.quantiles, n=4),
next to the metric's bound from BENCHMARK.json. Every run lasts
BENCHMARK.json's run_seconds. A spread below a third of the bound is steady
enough to gate on. Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [*bench["command"], "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if run.returncode != 0:
            sys.stderr.write(run.stderr)
            print(f"seed {seed}: exit {run.returncode}")
            return 1
        result = json.loads(run.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()),
            flush=True)

    worst = 0.0
    print(f"\n{'metric':20} {'median':>14} {'spread':>8} {'bound':>6}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        q1, median, q3 = statistics.quantiles(values[name], n=4)
        spread = (q3 - q1) / median if median else float("inf")
        flag = "" if spread < metric["bound"] / 3 else "  <-- over a third of the bound"
        worst = max(worst, spread / metric["bound"])
        print(f"{name:20} {median:14.6g} {spread:8.4f} {metric['bound']:6.2f}{flag}")
    print(f"\nworst spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
