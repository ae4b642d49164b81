#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload cold-bound --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); scratch query and answer files go to a work
directory inside it that is removed afterwards. Build output goes to
standard error; the last line of standard output is the JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cold-bound", "cold-dense", "live-mixed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (
        ["cmake", "-S", "perfbench", "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "--target", "perfbench", "-j", jobs],
    ):
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1

    # Relative paths: the serve line protocol splits on spaces.
    work = os.path.relpath(os.path.join(build, "work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid())))
    os.makedirs(work, exist_ok=True)
    command = [
        os.path.join(build, "perfbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", work,
    ]
    if args.trace:
        traces = os.path.join(build, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--spans", os.path.join(
            traces, "%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        result = subprocess.run(command)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
