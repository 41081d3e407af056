#!/usr/bin/env python3
"""Builds and runs the closed-loop SysBench benchmark of PolarDB-MP.

Run from the repository root:

    python3 perfbench/run.py --workload ro_hot_1n --seed 1 --seconds 10 --trace 0

The benchmark (perfbench/sysbench_bench.cc) is compiled from the sources
under src/ with its own CMake project, into the directory named by
CARGO_TARGET_DIR (default .bench_build); later runs rebuild only what
changed. The build log goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits non-zero when the build fails, a check fails
or the run overruns its time limit.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("ro_hot_1n", "ro_cold_2n", "rw_shared_2n")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "baselines", "database.h")):
        fail(f"no engine sources under {os.path.join(root, 'src')}")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "sysbench_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "sysbench_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(root, build_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        # subprocess.run kills and reaps the benchmark on timeout.
        result = subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark overran {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
