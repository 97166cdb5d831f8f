#!/usr/bin/env python3
"""Build and run the STBPU performance benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload replay_steady --seed 1 --seconds 30 --trace 0

The first call configures and builds perfbench/ (the library sources under
src/ plus the benchmark program) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later calls only rebuild what changed. Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result. Exits non-zero,
printing no result, when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 2
    binary = os.path.join(build_dir, "stbpu_perfbench")
    span_dir = os.path.join(build_dir, "spans")
    os.makedirs(span_dir, exist_ok=True)
    cmd = [binary, "--golden", os.path.join(HERE, "golden.txt"), "--out", span_dir]
    proc = subprocess.run(cmd + sys.argv[1:])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
