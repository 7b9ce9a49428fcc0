#!/usr/bin/env python3
"""Builds the plim benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serial-epfl --seed 1 --seconds 15 \
        --trace 0

The build goes to .bench_build/perfbench (CMake, Release); generated inputs
and the trace file go below it. Everything the harness prints passes
through; its last stdout line is the JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configures and builds plimbench + plimc; returns False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        for cmd in (
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", BUILD, "-j", "4",
             "--target", "plimbench", "plimc"],
        ):
            status = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if status.returncode:
                sys.stderr.write(f"perfbench: build failed, see {log_path}\n")
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "driver", "driver.hpp")):
        sys.stderr.write("perfbench: the plim sources (src/) are missing\n")
        return 2
    if not build():
        return 1
    cmd = [
        os.path.join(BUILD, "plimbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--plimc", os.path.join(BUILD, "plimc"),
        "--work", os.path.relpath(os.path.join(BUILD, "work"), ROOT),
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
