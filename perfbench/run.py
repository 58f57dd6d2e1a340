#!/usr/bin/env python3
"""Runs one workload of the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
`perfbench` binary (perfbench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR
or `.bench_build`; later calls only rebuild what changed. The binary's
output is passed through; its last line is the run's result object. The exit
code is the binary's: nonzero when a correctness gate failed or the build or
the run could not complete.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("rsvd_stream", "svc_openloop")
RUN_TIMEOUT_S = 170


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(root):
    """Configures (once) and builds the binary; returns its path or None."""
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    source = os.path.join(root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result.
            done = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"build step failed: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"build step failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = repo_root()
    binary = build(root)
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", ".bench_out"]
    try:
        done = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("the benchmark run timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
