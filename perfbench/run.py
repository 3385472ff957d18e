#!/usr/bin/env python3
"""Builds the pardb default-path benchmark from source and runs it.

usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The C++ driver (perfbench.cc) does the measuring and prints the result;
this script configures and builds it into .bench_build/perfbench, times
cold processes for setup_s, and forwards the driver's output, whose last
line is the JSON result. Build output goes to stderr.
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
SETUP_SAMPLES = 7  # cold processes timed per run; setup_s is their median
# Cold processes run batch 0 of this fixed seed whatever --seed is: set-up
# time should not move with how costly one random batch happens to be.
SETUP_SEED = 21
BUILD_TIMEOUT_S = 840


def build():
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure,
                ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]):
        result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            return False
    return True


def time_cold_setup(workload):
    """Seconds from process start to the end of its first (cold) run."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [BINARY, "--workload", workload, "--seed", str(SETUP_SEED),
         "--setup-only"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or line.strip() != "setup-done":
        raise RuntimeError("cold setup run failed")
    return elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--spec", os.path.join(ROOT, "BENCHMARK.json")]
    if args.trace == "1":
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.csv")]
    else:
        try:
            samples = [time_cold_setup(args.workload)
                       for _ in range(SETUP_SAMPLES)]
        except RuntimeError as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return 1
        print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in samples)} "
              f"(median {statistics.median(samples):.4f})")
        cmd += ["--setup-samples", ",".join(repr(s) for s in samples)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=args.seconds + 120).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
