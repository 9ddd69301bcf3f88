#!/usr/bin/env python3
"""Build and run the cellscope benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload simulate|replay|query --seed N \
        --seconds S --trace 0|1 [--scale default|smoke]

The benchmark is compiled from ../src into the build directory named by
CARGO_TARGET_DIR (default .bench_build), then run once. Build output goes to
stderr; the benchmark's own report goes to stdout and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. The exit status is the
benchmark's: 0 only when every output check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SOURCE_ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(SOURCE_ROOT, "src", "CMakeLists.txt")):
        fail("no cellscope sources next to perfbench/ (expected ../src)")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    steps = ["cmake", "--build", out, "--target", "cellbench", "-j", jobs]
    if subprocess.run(steps, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "cellbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["simulate", "replay", "query"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--scale", default="default",
                        choices=["default", "smoke"])
    args = parser.parse_args()

    binary = build()
    out = build_dir()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--scale", args.scale,
               "--work-dir", os.path.join(out, "work"),
               "--spans-dir", os.path.join(out, "spans")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(done.stdout)
        fail("benchmark printed no result line (exit %d)" % done.returncode)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
