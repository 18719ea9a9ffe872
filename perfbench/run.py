#!/usr/bin/env python3
"""Builds and runs the rimarket benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: paper-sweep, population-sweep, serve-read, serve-mixed (see
BENCHMARK.json).  The library is compiled from the checkout's src/ together
with the benchmark binary in perfbench/src/ (Release, into $CARGO_TARGET_DIR or
.bench_build); the first run builds, later runs reuse the build.  The
binary's last stdout line is the result object.  Exit status: 0 when every
correctness check passed, non-zero otherwise (or when the sources are
missing, the build fails or the run overruns its time limit).
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper-sweep", "population-sweep", "serve-read", "serve-mixed")
# A run must end within 180 s; leave room for start-up and clean-up.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures (once) and builds the benchmark binary; build output goes to stderr."""
    os.makedirs(build_dir, exist_ok=True)
    # Serialise concurrent runs in one checkout around the build.
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", build_dir, "--target", "rimarket_perfbench",
                        "-j", str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "rimarket_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="self-test: corrupt one expected answer so the run must fail")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no rimarket sources under {root}/src; run from a full checkout")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    work_dir = os.path.join(build_dir, "work", f"{args.workload}-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace, "--work-dir", work_dir]
    if args.corrupt_expected:
        command.append("--corrupt-expected")
    try:
        completed = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(completed.returncode)


if __name__ == "__main__":
    main()
