#!/usr/bin/env python3
"""A/B verdicts for two sets of bench_e2e runs (parent and change).

    python3 bench_e2e/compare.py --parent p01.txt p02.txt ... \\
                                 --change c01.txt c02.txt ...

Each file is the standard output of one run.py invocation, which holds
"<workload> <metric> <value> <unit>" lines for one or more workloads. The
i-th parent file and the i-th change file form a pair; make them by
alternating which side runs first (README.md shows a loop). Give at least
ten pairs.

One row per workload and metric: each side's median and quartiles, the
fraction of pairs the change wins (ties count for neither), and a verdict
following the rules of the choosing-metrics method with the bounds of
BENCHMARK.json:

  improved    the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's quartile distance
  regressed   the change's median is worse than the parent's by more
              than the metric's bound, however noisy the parent is
  unresolved  the parent's own quartile distance is wider than the bound,
              so "no worse" cannot be shown (unless every change run beats
              every parent run)
  no worse    otherwise

Per-layer metrics have no bound and get no verdict. The exit code is 1 if
any end-to-end metric regressed, else 3 if any is unresolved, else 0, so
that a gate cannot pass on an unresolved metric without saying so.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_set(path):
    """{(workload, metric): value} from one run.py output."""
    values = {}
    with open(path) as f:
        for line in f:
            fields = line.split()
            if len(fields) != 4:
                continue
            try:
                values[(fields[0], fields[1])] = float(fields[2])
            except ValueError:
                continue
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    lower = better == "lower"
    beats = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    wins = sum(beats(c, p) for p, c in zip(parent, change)) / len(parent)
    if bound is None:
        return wins, ""
    if wins >= 0.9 and abs(cm - pm) > q3 - q1:
        return wins, "improved"
    worse = (cm - pm) if lower else (pm - cm)
    if pm != 0 and worse / abs(pm) > bound:
        return wins, "regressed"
    if all(beats(c, p) for c in change for p in parent):
        return wins, "no worse"
    if pm != 0 and (q3 - q1) / abs(pm) > bound:
        return wins, "unresolved"
    return wins, "no worse"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()
    if len(args.parent) != len(args.change):
        sys.exit("compare.py: --parent and --change need the same number "
                 "of result sets (one pair each)")
    if len(args.parent) < 10:
        print(f"compare.py: only {len(args.parent)} pairs; the method asks "
              "for at least 10", file=sys.stderr)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parents = [read_set(p) for p in args.parent]
    changes = [read_set(c) for c in args.change]
    keys = sorted(set().union(*parents) & set().union(*changes))

    print(f"{'workload':16} {'metric':30} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>5}  verdict")
    verdicts = set()
    for workload, metric in keys:
        if metric not in meta:
            continue
        pairs = [(p[(workload, metric)], c[(workload, metric)])
                 for p, c in zip(parents, changes)
                 if (workload, metric) in p and (workload, metric) in c]
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        wins, word = verdict(parent, change, meta[metric]["better"],
                             meta[metric].get("bound"))
        verdicts.add(word)
        cols = []
        for side in (parent, change):
            q1, q3 = quartiles(side)
            cols.append(f"{statistics.median(side):.6g} "
                        f"[{q1:.6g}, {q3:.6g}]")
        print(f"{workload:16} {metric:30} {cols[0]:>34} {cols[1]:>34} "
              f"{wins:5.2f}  {word}")
    if "regressed" in verdicts:
        sys.exit(1)
    sys.exit(3 if "unresolved" in verdicts else 0)


if __name__ == "__main__":
    main()
