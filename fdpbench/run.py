#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 fdpbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 fdpbench/run.py --selftest

Run from the repository root. The first call configures and builds the
library in src/ together with the benchmark program in fdpbench/src/ (CMake,
Release)
under .bench_build/; later calls only re-run the incremental build. The
build log goes to .bench_build/fdpbench-build.log, never to stdout.

The last line of stdout is the benchmark's JSON result; see
fdpbench/README.md.
Traced runs (--trace 1) also write their spans to .bench_build/spans/.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT, "fdpbench")
BUILD_LOG = os.path.join(OUT, "fdpbench-build.log")
BINARY = os.path.join(BUILD_DIR, "fdpbench")
WORKLOADS = ("churn_monitored", "live_udp", "modelcheck")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run_logged(cmd, log, timeout):
    """Run cmd with its output appended to log; True on exit code 0."""
    try:
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def build():
    """Configure (once) and build the benchmark; True on success."""
    os.makedirs(OUT, exist_ok=True)
    with open(BUILD_LOG, "a") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if not run_logged(cmd, log, BUILD_TIMEOUT_S):
                # A failed configure must not leave a cache that later
                # calls would mistake for a configured tree.
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                return False
        return run_logged(["cmake", "--build", BUILD_DIR, "-j3"], log,
                          BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="reconciliation self-test of every workload at "
                         "smoke size")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not build():
        sys.stderr.write("fdpbench: build failed; see %s\n" % BUILD_LOG)
        return 1

    spans = os.path.join(OUT, "spans")
    if args.selftest:
        cmd = [BINARY, "--selftest", "--spans", spans]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.stderr.write("fdpbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
