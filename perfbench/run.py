#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Run from the repository root:

    python3 perfbench/run.py --workload subjects --seed 1 --seconds 10 --trace 0

Every argument is passed through to the perfbench binary (see
perfbench/README.md). The build lives in .bench_build/perfbench; its output
goes to stderr so that the last line on stdout is the binary's result line.
The exit code is the binary's, or 1 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configures on first use, then brings the binary up to date."""
    steps = [["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    return all(subprocess.call(step, stdout=sys.stderr) == 0 for step in steps)


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.call([os.path.join(BUILD, "perfbench")] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
