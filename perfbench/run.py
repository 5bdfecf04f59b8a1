#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and builds
the library and the benchmark binary under .bench_build/perfbench (about a
minute on 4 cores); later runs only check that the build is current. The
last line of standard output is the benchmark's JSON result; build output
goes to .bench_build/perfbench/build.log. The full report of each run
(provenance, sample counts, phases, spans) is written under
.bench_build/perfbench-runs/.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "perfbench-runs")
BINARY = os.path.join(BUILD_DIR, "ips_perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "ips_perfbench",
         "-j", jobs],
    ]
    if os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    log_path = os.path.join(BUILD_DIR, "build.log")
    # One build at a time per checkout.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            try:
                done = subprocess.run(step, cwd=ROOT, stdout=log,
                                      stderr=subprocess.STDOUT)
            except OSError as error:
                print(f"perfbench: cannot run {step[0]}: {error}",
                      file=sys.stderr)
                return False
            if done.returncode != 0:
                print(f"perfbench: build failed, see {log_path}",
                      file=sys.stderr)
                return False
    return True


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the paths and contents of the sources that are built,
    so a result names its code even outside a git checkout."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    if not build():
        return 1
    work_dir = os.path.join(
        RUNS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(work_dir, exist_ok=True)
    command = [
        BINARY, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", args.trace,
        "--work_dir", work_dir, "--git_sha", git_sha(),
        "--source_digest", source_digest(),
    ]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
