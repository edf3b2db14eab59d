#!/usr/bin/env python3
"""Summarise one or two sets of benchmark records and check them against BENCHMARK.json.

    python3 perfbench/compare.py SET_A [SET_B]

A set is a directory of records written by ``run.py --out``. For each
workload and end-to-end metric the summary gives the median and the spread,
the distance between the first and third quartiles as a share of the median.
With two sets it also gives the shift of the second median against the first,
signed so that positive is worse. It checks:

* every record comes from the same machine record (otherwise it refuses to
  compare and exits with 2);
* no record has a failed operation;
* each spread stays within the metric's bound;
* the second median is not worse than the first by more than the bound;
* the exact counts and the output digest repeat for equal workload and seed.

Exit code 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(path.glob("*.json"))]


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance over the median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("sets", type=Path, nargs="+", help="one or two directories of records")
    args = ap.parse_args(argv)
    if len(args.sets) > 2:
        ap.error("give one or two sets")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(path) for path in args.sets]
    records = [r for s in sets for r in s]
    if not all(sets):
        print("error: a set holds no records", file=sys.stderr)
        return 2

    machines = {json.dumps(r["machine"], sort_keys=True) for r in records}
    if len(machines) > 1:
        print("refusing to compare records from different machines:", file=sys.stderr)
        for m in sorted(machines):
            print(f"  {m}", file=sys.stderr)
        return 2

    problems = []
    for r in records:
        if not r["result"]["correct"]:
            problems.append(f"{r['workload']} seed {r['seed']}: {r['result']['failed']} failed operations")

    medians = defaultdict(dict)
    for k, records_k in enumerate(sets):
        by_workload = defaultdict(list)
        for r in records_k:
            if not r["trace"]:
                by_workload[r["workload"]].append(r["result"]["metrics"])
        for workload, runs in sorted(by_workload.items()):
            for m in spec["end_to_end"]:
                values = [run[m["name"]]["value"] for run in runs]
                med, iqr = spread(values)
                medians[(workload, m["name"])][k] = med
                line = f"set {k + 1}  {workload:18s} {m['name']:12s} n={len(values):2d}  median {med:.6g} {m['unit']}  spread {iqr:.4f} (bound {m['bound']})"
                if len(args.sets) == 2 and k == 1 and 0 in medians[(workload, m["name"])]:
                    base = medians[(workload, m["name"])][0]
                    shift = (med - base) / base * (1 if m["better"] == "lower" else -1)
                    line += f"  shift {shift:+.4f}"
                    if shift > m["bound"]:
                        problems.append(f"{workload} {m['name']}: second median worse by {shift:.4f} > {m['bound']}")
                print(line)
                if iqr > m["bound"]:
                    problems.append(f"set {k + 1} {workload} {m['name']}: spread {iqr:.4f} > bound {m['bound']}")

    exact = defaultdict(set)
    for r in records:
        for key, value in r["exact"].items():
            exact[(r["workload"], r["seed"], key)].add(json.dumps(value))
    for (workload, seed, key), values in sorted(exact.items()):
        if len(values) > 1:
            problems.append(f"{workload} seed {seed}: {key} differs between runs: {sorted(values)}")
    print(f"exact counts and digests: {len(exact)} (workload, seed, key) groups checked")

    for problem in problems:
        print(f"FAIL  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
