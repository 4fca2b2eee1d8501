#!/usr/bin/env python3
"""Wall-clock regression guard over google-benchmark JSON output.

    python3 bench/guard.py --family '^(Get|MultiGet64)/' --limit 1.03 \\
        BENCH_wallclock.json fresh1.json fresh2.json fresh3.json

Takes each benchmark's minimum real_time over the fresh runs (on a shared
host the floor over a few passes is the stable estimator; one slow pass
must not fail the guard) and compares it with the committed baseline over
every baseline row whose name matches --family. Fails when the geometric
mean of the ratios exceeds --limit, when no baseline row matches, or when
a matching baseline row is missing from any fresh run -- so a renamed or
dropped benchmark cannot shrink the guard silently. Run the fresh passes
with --benchmark_filter set to the same regex as --family.

    python3 bench/guard.py --listed names.txt BENCH_wallclock.json

Row presence, timing nothing: `names.txt` holds what
`bench_wallclock --benchmark_list_tests=true` prints, and it must name
exactly the baseline's rows. Fails on a baseline row no benchmark produces
any more, and on a benchmark the baseline has no row for.
"""
import argparse
import json
import math
import re
import sys


def real_times(path, family):
    with open(path) as f:
        doc = json.load(f)
    return {b["name"]: b["real_time"] for b in doc.get("benchmarks", [])
            if family.search(b["name"]) and b.get("real_time")}


def check_presence(baseline_path, listed_path):
    with open(baseline_path) as f:
        baseline = {b["name"] for b in json.load(f).get("benchmarks", [])}
    with open(listed_path) as f:
        listed = {line.strip() for line in f if line.strip()}
    gone = sorted(baseline - listed)
    new = sorted(listed - baseline)
    if gone:
        print("baseline rows no benchmark produces: " + ", ".join(gone))
    if new:
        print("benchmarks without a baseline row: " + ", ".join(new))
    if gone or new:
        sys.exit("presence FAILED: regenerate the baseline from one "
                 "unfiltered run")
    print(f"presence OK: {len(baseline)} rows")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--family",
                        help="regex of the benchmark names to guard")
    parser.add_argument("--limit", type=float, default=1.03,
                        help="largest allowed geomean of fresh/baseline")
    parser.add_argument("--listed",
                        help="benchmark names, one a line: check row "
                        "presence instead of timing")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("fresh", nargs="*", help="fresh run JSON files")
    args = parser.parse_args()

    if args.listed:
        check_presence(args.baseline, args.listed)
        return
    if not args.family or not args.fresh:
        parser.error("--family and at least one fresh run are required")
    family = re.compile(args.family)
    baseline = real_times(args.baseline, family)
    if not baseline:
        sys.exit(f"guard: no baseline row matches {args.family!r}")
    runs = [real_times(path, family) for path in args.fresh]
    missing = sorted(name for name in baseline
                     if any(name not in run for run in runs))
    if missing:
        sys.exit("guard FAILED: baseline rows missing from the fresh run: "
                 + ", ".join(missing))

    log_sum = 0.0
    for name in sorted(baseline):
        ratio = min(run[name] for run in runs) / baseline[name]
        log_sum += math.log(ratio)
        print(f"  {name:<40} {ratio:6.3f}x")
    geomean = math.exp(log_sum / len(baseline))
    print(f"  geomean over {len(baseline)} rows matching {args.family!r}: "
          f"{geomean:.4f}x (limit {args.limit})")
    if geomean > args.limit:
        sys.exit(f"guard FAILED: {100 * (geomean - 1):.1f}% slower than "
                 "the baseline")
    print("guard OK")


if __name__ == "__main__":
    main()
