#!/usr/bin/env python3
"""Compares two sets of rumbench result JSONs, metric by metric.

    python3 rumbench/compare.py --base RESULT... --new RESULT...

Each RESULT is a result JSON written by rumbench (run.py keeps them under
.bench_build/results) or a directory of them. For every (workload, metric)
reported by both sets it prints each side's median and quartiles and the
change of the new median relative to the base, signed so that + is worse.
Bounds come from BENCHMARK.json; the end-to-end metrics it does not list
(because not every workload reports them) use EXTRA below. A row reads

  ok          within its bound;
  OVER        worse than its bound;
  unresolved  a side's quartile spread exceeds the bound, and not every new
              run beats every base run;
  better      the spread exceeds the bound, but every new run beats every
              base run;
  CHANGED     an end-to-end count (read_amp, ...) differs for a seed present
              in both sets; counts repeat exactly for a given seed;
  changed     the same, for a per-layer count, which has no bound;
  info        no bound (per-layer metrics, p999).

Exits 1 if any row is OVER or CHANGED.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# End-to-end metrics reported only by the workloads whose mix has them,
# bounded like their Get counterparts in BENCHMARK.json.
EXTRA = {
    "multiget_p50_ns": ("lower", 0.20),
    "multiget_p99_ns": ("lower", 0.25),
    "scan_p50_ns": ("lower", 0.20),
    "scan_p99_ns": ("lower", 0.25),
    "error_rate": ("lower", 0.0),
    "goodput_virtual_ops_s": ("higher", 0.0),
}


def is_timed(name, unit):
    """Wall-clock metrics vary run to run; every other metric is a count,
    deterministic for a given seed, and is compared seed by seed."""
    return unit in ("ns", "s", "MB") or name in ("throughput_ops_s",
                                                  "trace.overhead_share")


def load(paths):
    results = []
    for p in paths:
        files = sorted(glob.glob(os.path.join(p, "*.json"))) \
            if os.path.isdir(p) else [p]
        for f in files:
            with open(f) as fh:
                results.append(json.load(fh))
    return results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def status(name, unit, better, bound, base_runs, new_runs, worse, spread):
    """The status column of one (workload, metric) row; see the module doc."""
    if not is_timed(name, unit):
        by_seed = {r["context"]["seed"]: r["metrics"][name]["value"]
                   for r in base_runs}
        shared = [(by_seed[r["context"]["seed"]], r["metrics"][name]["value"])
                  for r in new_runs if r["context"]["seed"] in by_seed]
        if shared:
            same = all(b == n for b, n in shared)
            if bound is None:
                return "info" if same else "changed"
            return "ok" if same else "CHANGED"
    if bound is None:
        return "info"
    if spread > bound:
        bv = [r["metrics"][name]["value"] for r in base_runs]
        nv = [r["metrics"][name]["value"] for r in new_runs]
        beats = max(nv) < min(bv) if better == "lower" else min(nv) > max(bv)
        return "better" if beats else "unresolved"
    return "OVER" if worse > bound else "ok"


def fmt(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--spec", default=os.path.join(HERE, "..",
                                                       "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.spec) as f:
        spec = json.load(f)
    rules = dict(EXTRA)
    for m in spec["end_to_end"]:
        rules[m["name"]] = (m["better"], m["bound"])
    better_of = {m["name"]: m["better"] for m in spec["per_layer"]}

    base, new = load(args.base), load(args.new)
    keys = sorted({(r["workload"], r["trace"]) for r in base} &
                  {(r["workload"], r["trace"]) for r in new})
    failures = 0
    print(f"{'workload':13s} {'metric':38s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'worse':>8s} {'bound':>6s} status")
    for workload, trace in keys:
        b_runs = [r for r in base if (r["workload"], r["trace"]) == (workload, trace)]
        n_runs = [r for r in new if (r["workload"], r["trace"]) == (workload, trace)]
        names = [n for n in b_runs[0]["metrics"]
                 if all(n in r["metrics"] for r in b_runs + n_runs)]
        for name in names:
            unit = b_runs[0]["metrics"][name]["unit"]
            bv = [r["metrics"][name]["value"] for r in b_runs]
            nv = [r["metrics"][name]["value"] for r in n_runs]
            bq, nq = quartiles(bv), quartiles(nv)
            better, bound = rules.get(name, (better_of.get(name, "lower"), None))
            if name.endswith("_p999_ns"):
                bound = None
            sign = 1 if better == "lower" else -1
            worse = sign * (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (bq, nq))
            st = status(name, unit, better, bound, b_runs, n_runs, worse, spread)
            failures += st in ("OVER", "CHANGED")
            bound_s = "-" if bound is None else f"{bound:.2f}"
            print(f"{workload:13s} {name:38s} {fmt(bq):>34s} {fmt(nq):>34s} "
                  f"{worse:+8.2%} {bound_s:>6s} {st}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
