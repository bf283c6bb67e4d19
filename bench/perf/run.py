#!/usr/bin/env python3
"""Builds the benchmark in build-perf/ and runs it (see README.md here).

Run from the repo root:

    python3 bench/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/perf/run.py --smoke

The first call configures and builds build-perf/ (Release); later calls
rebuild only what changed. Build output goes to stderr. The arguments pass
through to the perf_bench binary, whose last line of standard output is the
JSON result, and its exit code is returned.
"""
import fcntl
import os
import subprocess
import sys

BUILD_DIR = "build-perf"
SOURCE_DIR = os.path.dirname(os.path.abspath(__file__))


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD_DIR, ".build-lock"), "w") as lock:
        # Runs sharing a checkout share the build: one builds, the rest wait.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
            subprocess.run(
                ["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", BUILD_DIR, "--target", "perf_bench",
             "-j", jobs],
            stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD_DIR, "perf_bench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
