#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout's sources and runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest [--seed N ...]

The driver (perfbench/driver, built by perfbench/CMakeLists.txt into
.bench_build/perfbench) prints human-readable notes prefixed with '#' and,
as its last stdout line, the JSON result. Build output goes to stderr.
--selftest runs the correctness-gate self-test at seeds 1 and 2 (or the
seeds given).
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "aurora_perfbench")
WORKLOADS = ("chain_num", "dag_str", "threaded_chains", "federation")


def build():
    """Configures once, then rebuilds incrementally (a no-op when current)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no program sources (src/) next to "
                         "perfbench/; nothing to build\n")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "--target", "aurora_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or not args.seed):
        parser.error("--workload and --seed are required")
    if not build():
        return 2
    results = os.path.join(ROOT, ".bench_build", "perfbench-results")
    if args.selftest:
        cmd = [BINARY, "--selftest"]
        if args.workload:
            cmd += ["--workload", args.workload]
        for seed in args.seed or [1, 2]:
            code = subprocess.run(cmd + ["--seed", str(seed)]).returncode
            if code:
                return code
        return 0
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed[-1]),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", results]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
