#!/usr/bin/env python3
"""Self-test of the operator benchmark, at tiny sizes.

    python3 opbench/selftest.py

Run it from the repository root. For every workload it checks that an
untraced and a traced run print every metric of BENCHMARK.json by name with
its unit, that deterministic metrics repeat bit for bit under the same seed,
that a program with a child bucket moved ahead of its parent makes the
command exit nonzero, and that the command exits nonzero without a result
when the library sources are missing. Exits nonzero on the first failure.
"""

import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# Per-layer metrics that depend on thread scheduling or on the clock.
NONDETERMINISTIC_LAYER_UNITS = {"ms", "%"}
NONDETERMINISTIC_LAYER_NAMES = {"exec.steals"}


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(bench, workload, trace, *extra, cwd=ROOT, seed=3):
    command = [*bench["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def fail(message):
    print(f"FAIL: {message}")
    sys.exit(1)


def check_metrics(workload, result, expected, nonzero):
    names = [m["name"] for m in expected]
    if sorted(result["metrics"]) != sorted(names):
        fail(f"{workload}: metrics {sorted(result['metrics'])} != {sorted(names)}")
    for metric in expected:
        got = result["metrics"][metric["name"]]
        if got["unit"] != metric["unit"]:
            fail(f"{workload}: {metric['name']} unit {got['unit']} != {metric['unit']}")
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{workload}: {metric['name']} is not a finite number: {value}")
        if nonzero and value == 0:
            fail(f"{workload}: {metric['name']} is 0")


def deterministic(bench, result, trace):
    if trace:
        return {m["name"]: result["metrics"][m["name"]]["value"]
                for m in bench["per_layer"]
                if m["unit"] not in NONDETERMINISTIC_LAYER_UNITS
                and m["name"] not in NONDETERMINISTIC_LAYER_NAMES}
    return {name: result["metrics"][name]["value"]
            for name in ("wait_slots", "wait_tail_slots", "success_frac")}


def main():
    bench = load_bench()
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            expected = bench["per_layer"] if trace else bench["end_to_end"]
            first, second = run(bench, workload, trace), run(bench, workload, trace)
            for proc in (first, second):
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    fail(f"{workload} trace={trace}: exit {proc.returncode}")
            a, b = result_of(first), result_of(second)
            if not a["correct"] or a["attempted"] < 1:
                fail(f"{workload} trace={trace}: {a}")
            check_metrics(workload, a, expected, nonzero=not trace)
            if deterministic(bench, a, trace) != deterministic(bench, b, trace):
                fail(f"{workload} trace={trace}: deterministic metrics differ "
                     f"between runs of one seed")
            print(f"ok   {workload} trace={trace}")

    for workload in ("catalog_exact", "fleet_serve"):
        proc = run(bench, workload, 0, "--inject-fault", "program-order")
        result = result_of(proc)
        if proc.returncode == 0 or (result is not None and result["correct"]):
            fail(f"{workload}: a corrupted program did not fail the run")
        print(f"ok   {workload} rejects a child bucket aired before its parent")

    # A directory holding only BENCHMARK.json and the benchmark's own files.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    proc = run(bench, "catalog_exact", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("the benchmark succeeded or printed a result without library sources")
    print("ok   no library sources: nonzero exit, no result")
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
