#!/usr/bin/env python3
"""Builds the edgeshed benchmark program from source and runs one workload.

Run from the root of an edgeshed checkout:

  python3 perfbench/run.py --workload shed-cold --seed 1 --seconds 45 --trace 0

The program is configured and built (Release) under .bench_build/ on first
use; later runs only rebuild what changed. Build output goes to stderr, so
the last line of stdout is the program's JSON result. Snapshots and trace
files are written under .bench_out/. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("shed-cold", "serve-mix", "mutate")


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the program; returns its path or None."""
    have_sources = os.path.isfile(
        os.path.join(ROOT, "CMakeLists.txt")
    ) and os.path.isdir(os.path.join(ROOT, "src", "core"))
    if not have_sources:
        log("the edgeshed sources are not next to perfbench/; nothing to build")
        return None
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = [
            "cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
            "-DCMAKE_BUILD_TYPE=Release",
        ]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            log("configure failed")
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    command = [
        "cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs,
    ]
    if subprocess.call(command, stdout=sys.stderr) != 0:
        log("build failed")
        return None
    return os.path.join(BUILD_DIR, "perfbench")


def source_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--out_dir", OUT_DIR,
        "--rev", source_revision(),
    ]
    return subprocess.call(command, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
