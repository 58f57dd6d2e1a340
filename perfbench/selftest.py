#!/usr/bin/env python3
"""Builds the benchmark binary and runs its decorator self-tests.

    python3 perfbench/selftest.py

Run from the repository root. Exits nonzero when a decorator changes a
result or its counts disagree with the counters it shadows.
"""

import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
import run  # noqa: E402  (the build step lives there)


def main():
    root = run.repo_root()
    binary = run.build(root)
    if binary is None:
        return 1
    return subprocess.run([binary, "--selftest", "--out", ".bench_out"],
                          cwd=root, timeout=run.RUN_TIMEOUT_S).returncode


if __name__ == "__main__":
    sys.exit(main())
