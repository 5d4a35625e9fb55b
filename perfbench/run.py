#!/usr/bin/env python3
"""Build and run the simulator benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the simulator library from src/ plus the benchmark
harness) with CMake into $CARGO_TARGET_DIR/perfbench-<checkout hash>
(default .bench_build/perfbench-<checkout hash>), then runs perfbench_run
with the same arguments. The hash is of the checkout's real path, so two
checkouts sharing one target directory never build or time each other's
sources.
Build output goes to stderr; the benchmark's stdout passes through, and its
last line is the JSON result. Exits non-zero when the sources are missing,
the build fails, a correctness check fails, or the run overruns its time.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BUILD_JOBS = "2"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then build perfbench_run (a no-op when current)."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", build_dir, "--target", "perfbench_run",
            "--parallel", BUILD_JOBS]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench_run")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # perfbench_run validates the name (exit 2 on an unknown workload).
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(needed):
            fail(f"{needed} not found; run from the root of a checkout")

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    checkout = hashlib.sha256(
        os.path.realpath(".").encode()).hexdigest()[:12]
    build_dir = os.path.join(target_dir, f"perfbench-{checkout}")
    binary = build(build_dir)

    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(build_dir,
                             f"spans-{args.workload}-{args.seed}.json")
        command += ["--spans-out", spans]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
