#!/usr/bin/env python3
"""Prints rumbench's exact counts as sorted "workload key value" lines.

    python3 bench/rumbench_exact.py <path/to/rumbench> [BENCHMARK.json]

Runs every workload that BENCHMARK.json lists once, at seed 1 and 1% scale
with --seconds 0 and tracing off, and prints the `exact` object of each
result (pages pinned, blocks moved, cache hits, compactions, ...). Those
counts are deterministic, so ci.sh's release stage diffs this output
against bench/golden/rumbench_exact.txt. Exits non-zero, printing nothing,
when a run fails or reports a wrong result.
"""

import json
import os
import subprocess
import sys
import tempfile

ARGS = ["--seed", "1", "--seconds", "0", "--scale", "0.01", "--trace", "0"]


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    binary = sys.argv[1]
    spec_path = sys.argv[2] if len(sys.argv) == 3 else os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json")
    with open(spec_path) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for w in workloads:
            out = os.path.join(tmp, f"{w}.json")
            cmd = [binary, "--workload", w, *ARGS, "--json", out]
            done = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=120)
            if done.returncode != 0 or not os.path.exists(out):
                print(f"{' '.join(cmd)} exited {done.returncode}",
                      file=sys.stderr)
                return 1
            with open(out) as f:
                result = json.load(f)
            if not result["correct"] or result["failed"] != 0:
                print(f"{w}: results wrong", file=sys.stderr)
                return 1
            lines += [f"{w} {k} {v}" for k, v in result["exact"].items()]
    sys.stdout.write("".join(line + "\n" for line in sorted(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
