#!/usr/bin/env python3
"""Builds and runs the netbone serving benchmark.

Usage, from the root of a netbone checkout:

    python3 perfbench/run.py --workload warm_hot --seed 1 --seconds 30 --trace 0

The first run configures and builds the library and the benchmark (Release)
under $CARGO_TARGET_DIR (default .bench_build); later runs rebuild only
what changed. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. The exit code is the benchmark's: non-zero when any
response was wrong or failed, or when there is nothing to build.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("warm_hot", "revision_churn", "cold_ingest")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures once, then builds the benchmark target; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "netbone_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: no netbone sources beside perfbench/",
              file=sys.stderr)
        return 2
    build_root = os.path.join(ROOT,
                              os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    command = [os.path.join(build_dir, "netbone_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
