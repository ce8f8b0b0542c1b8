#!/usr/bin/env python3
"""Builds and runs the bati end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds the libraries under src/ plus the benchmark binary (Release) into
.bench_build/perfbench; later calls rebuild only what changed. Build output
goes to stderr, so the benchmark's result stays the last stdout line. The
exit status is the benchmark's own, or non-zero when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(step))
            return False
    return True


def main():
    if not build():
        return 1
    sys.stdout.flush()
    done = subprocess.run([BINARY] + sys.argv[1:])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
