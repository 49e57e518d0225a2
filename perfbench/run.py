#!/usr/bin/env python3
"""Build and run the repo benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (which builds the photon
library from ../src) into $CARGO_TARGET_DIR, default .bench_build, then
runs one workload in one process. The build log goes to stderr; the last
line of stdout is the result JSON. Exits non-zero, without a result, when
the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("cornell-drain", "scene-scale", "service-mix")
RUN_TIMEOUT_S = 170


def build(source, build_dir):
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(here, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # Relative on purpose: the service workload binds a Unix socket here, and
    # socket paths are limited to 107 bytes.
    out_dir = os.path.join(build_dir, "perfbench-run", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    command = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", out_dir]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
