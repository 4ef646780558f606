#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload solve-syn2d --seed 1 --seconds 45 --trace 0

Every argument is passed through to the harness (perfbench.cc). The build
goes to .bench_build/perfbench (Release); its log goes to stderr, so the
last stdout line is the harness's JSON result. Exits non-zero without a
result when the build or the run fails.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    if not (ROOT / "CMakeLists.txt").is_file() or not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = BUILD / "perfbench"
    try:
        proc = subprocess.run([str(binary), *sys.argv[1:]], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
