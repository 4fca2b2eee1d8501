#!/usr/bin/env python3
"""Builds rumbench from source and runs one workload.

    python3 rumbench/run.py --workload read-hot --seed 1 --seconds 24 --trace 0

Run from the repository root. The first run configures and builds
rumbench/ (and the library under ../src) in Release into .bench_build/;
later runs rebuild only what changed. Prints the benchmark's
"workload metric value unit" lines, then, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"} whose metrics are every
end_to_end metric of BENCHMARK.json (--trace 0) or every per_layer metric
(--trace 1). The full result, with its context block, is kept under
--results (default .bench_build/results) for compare.py.

Exits non-zero without printing a result when the build fails or the
benchmark crashes, and after the result line when a result is wrong.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "rumbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "rumbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(BUILD, "rumbench")


def commit():
    # Only this checkout's own repository: git must not walk up past ROOT.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results",
                        default=os.path.join(ROOT, ".bench_build", "results"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2

    binary = build()
    if binary is None:
        return 1
    os.makedirs(args.results, exist_ok=True)
    out = os.path.join(
        args.results,
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--json", out, "--commit", commit()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"rumbench exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(done.stdout)
    if not os.path.exists(out):
        log(f"rumbench exited {done.returncode} without a result")
        return 1
    with open(out) as f:
        result = json.load(f)

    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        log(f"metrics missing from the result: {', '.join(missing)}")
        return 1
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in names},
    }
    print(json.dumps(line), flush=True)
    return 0 if result["correct"] and done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
