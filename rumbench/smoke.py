#!/usr/bin/env python3
"""Smoke test of the rumbench binary (the ctest rumbench_smoke).

    python3 smoke.py <path/to/rumbench> <path/to/BENCHMARK.json>

Runs every workload of BENCHMARK.json twice at 1% scale with one seed:
once plain (--trace 0) and once traced (--trace 1). Fails unless both
runs pass the oracle, every exact count is identical across the two
processes (so the run is deterministic and the timing decorators change
nothing), every end_to_end metric is reported and non-zero in the plain
run, and every per_layer metric is reported in the traced run.
"""

import json
import os
import subprocess
import sys
import tempfile

SEED = 7


def run(binary, workload, trace, out):
    cmd = [binary, "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--scale", "0.01", "--trace", str(trace),
           "--json", out]
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=120)
    if done.returncode != 0 or not os.path.exists(out):
        return None, f"{' '.join(cmd)} exited {done.returncode}"
    with open(out) as f:
        return json.load(f), None


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    binary, spec_path = sys.argv[1:]
    with open(spec_path) as f:
        spec = json.load(f)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        for w in (w["name"] for w in spec["workloads"]):
            plain, err = run(binary, w, 0, os.path.join(tmp, f"{w}-0.json"))
            traced, err2 = run(binary, w, 1, os.path.join(tmp, f"{w}-1.json"))
            for e in (err, err2):
                if e:
                    errors.append(e)
            if plain is None or traced is None:
                continue
            for r in (plain, traced):
                if not r["correct"] or r["failed"] != 0:
                    errors.append(f"{w} trace={r['trace']}: results wrong")
            if plain["exact"] != traced["exact"]:
                diff = sorted(k for k in plain["exact"]
                              if plain["exact"][k] != traced["exact"].get(k))
                errors.append(f"{w}: exact counts differ between the plain "
                              f"and traced runs: {', '.join(diff)}")
            for n in end_to_end:
                v = plain["metrics"].get(n, {}).get("value")
                if not v:
                    errors.append(f"{w}: end-to-end metric {n} is {v!r}")
            for n in per_layer:
                if n not in traced["metrics"]:
                    errors.append(f"{w}: per-layer metric {n} missing")
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    if not errors:
        print("rumbench smoke: all workloads pass")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
