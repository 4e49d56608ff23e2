#!/usr/bin/env python3
"""Builds svc_bench from this checkout (on first use) and runs one workload.

    python3 svcbench/run.py --workload wire-query|isolation-audit|churn-alert \
        --seed N --seconds S --trace 0|1 [--selftest]

Run from the root of the repository. The build goes to .bench_build/ (a
Release CMake build of svcbench/CMakeLists.txt, which pulls the RVaaS
libraries in from the root); build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Spans of a traced run are written
to .bench_build/trace/. Exits non-zero, printing no result, when the build
or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "svc_bench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "svcbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "svc_bench", "-j",
                  jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    if not build():
        print("run.py: building svc_bench failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    run = subprocess.run([BINARY] + sys.argv[1:] +
                         ["--trace-dir", os.path.join(BUILD, "trace")],
                         cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
