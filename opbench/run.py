#!/usr/bin/env python3
"""Builds and runs the layered operator benchmark.

    python3 opbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--tiny] [--inject-fault program-order]

Run it from the root of the repository. The first run configures and builds
the library and the benchmark program from source (Release) into the build
directory named by $CARGO_TARGET_DIR, or `.bench_build`; later runs only
rebuild what changed. Build output goes to stderr. Reports and Chrome traces
go to `<build dir>/opbench-out/`. The last line of stdout is the program's
JSON result, and the exit code is the program's: nonzero when the build or
any correctness check failed.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "--target", "opbench", "-j", "2"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_rev():
    """The git commit of the checkout, or "unknown" outside a git repository."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return "git:" + rev.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("opbench: no library sources next to the benchmark", file=sys.stderr)
        return 2
    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"opbench: build failed: {error}", file=sys.stderr)
        return 2
    reports = os.path.join(out, "opbench-out")
    os.makedirs(reports, exist_ok=True)
    command = [os.path.join(out, "opbench"), *sys.argv[1:],
               "--out-dir", reports, "--source-rev", source_rev()]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
