#!/usr/bin/env python3
"""Builds and runs the ModelarDB++ end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload ep-cold --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --self-test

The library is built from ./src together with the benchmark driver into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench). Build output goes
to standard error; the driver's standard output is passed through, so its
last line is the result JSON. Inputs and stores live under .bench_tmp/ and
are removed when the run ends; traced runs write their spans to .bench_out/.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(targets):
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(root), "e2ebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target"] +
                 targets)
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(step))
            return None
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the checks' own tests")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    build_dir = build(["e2ebench_checks_test"] if args.self_test
                      else ["e2ebench"])
    if build_dir is None:
        return 1
    if args.self_test:
        test = os.path.join(build_dir, "e2ebench_checks_test")
        return subprocess.call([test], stdout=sys.stderr, stderr=sys.stderr)

    workdir = os.path.join(".bench_tmp", "run-%d" % os.getpid())
    command = [os.path.join(build_dir, "e2ebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir, "--out-dir", ".bench_out"]
    try:
        return subprocess.call(command)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(".bench_tmp")
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
