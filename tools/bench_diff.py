#!/usr/bin/env python3
"""Compare parent and change runs of perfbench against BENCHMARK.json's bounds.

Usage:
  python3 tools/bench_diff.py BENCH_<n>.json [--benchmark BENCHMARK.json]
                              [--claim WORKLOAD:METRIC ...]

The input is a benchmark trajectory file as committed at the repository
root: {"runs": [run, ...]}, where each run is

  {"pair": 1, "side": "parent" | "change", "workload": "rand-mixed",
   "host": {...run.py's host line...},
   "result": {...run.py's final JSON: correct, attempted, failed, metrics}}

For every workload and every end-to-end metric of BENCHMARK.json, the
medians of the parent runs and of the change runs are compared. A metric is
flagged when the change median is worse than the parent median by more than
the metric's bound (a fraction of the parent median, in the metric's
"better" direction). A workload is also flagged when the change side has a
larger share of failed colorings, or when a run is missing the metric.

--claim WORKLOAD:METRIC additionally requires a claimed gain to hold: the
change is better than the parent in at least 9 of 10 pairs (pairs are
matched by their "pair" number), and the median improves by more than the
interquartile range of the parent runs.

Exit status: 0 when nothing is flagged, 1 when something is, 2 when the
input cannot be read.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    """First and third quartile (inclusive method; equal values for n < 2)."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def worse_fraction(parent, change, better):
    """How much worse change is than parent, as a fraction of parent."""
    delta = change - parent if better == "lower" else parent - change
    if parent == 0:
        return 0.0 if delta <= 0 else float("inf")
    return delta / abs(parent)


def load(path):
    with open(path) as f:
        return json.load(f)


def metric_values(runs, workload, side, name):
    """{pair: value} of one metric, or None if a run lacks it."""
    values = {}
    for r in runs:
        if r["workload"] != workload or r["side"] != side:
            continue
        m = r["result"].get("metrics", {}).get(name)
        if m is None:
            return None
        values[r["pair"]] = float(m["value"])
    return values


def failed_share(runs, workload, side):
    attempted = sum(r["result"]["attempted"] for r in runs
                    if r["workload"] == workload and r["side"] == side)
    failed = sum(r["result"]["failed"] for r in runs
                 if r["workload"] == workload and r["side"] == side)
    return failed / attempted if attempted else 1.0


def check_claim(runs, metrics, claim):
    """Returns a list of problem strings for one WORKLOAD:METRIC claim."""
    workload, _, name = claim.partition(":")
    spec = metrics.get(name)
    if spec is None:
        return [f"claim {claim}: unknown metric"]
    parent = metric_values(runs, workload, "parent", name)
    change = metric_values(runs, workload, "change", name)
    if not parent or not change:
        return [f"claim {claim}: no runs"]
    pairs = sorted(set(parent) & set(change))
    better = sum(1 for p in pairs
                 if worse_fraction(parent[p], change[p], spec["better"]) < 0)
    med_p = statistics.median(parent.values())
    med_c = statistics.median(change.values())
    q1, q3 = quartiles(sorted(parent.values()))
    gain = med_p - med_c if spec["better"] == "lower" else med_c - med_p
    print(f"claim {claim}: better in {better}/{len(pairs)} pairs, median "
          f"{med_p:.6g} -> {med_c:.6g} (gain {gain:.6g}, parent IQR "
          f"{q3 - q1:.6g})")
    problems = []
    if not pairs or better * 10 < 9 * len(pairs):
        problems.append(f"claim {claim}: better in only {better}/{len(pairs)}"
                        " pairs")
    if gain <= q3 - q1:
        problems.append(f"claim {claim}: median gain {gain:.6g} is not past "
                        f"the parent IQR {q3 - q1:.6g}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("bench", help="BENCH_<n>.json trajectory file")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    ap.add_argument("--claim", action="append", default=[],
                    metavar="WORKLOAD:METRIC")
    args = ap.parse_args()
    try:
        spec = load(args.benchmark)
        runs = load(args.bench)["runs"]
        for r in runs:
            if r["side"] not in ("parent", "change"):
                raise ValueError(f"unknown side {r['side']!r}")
            int(r["pair"]), str(r["workload"]), int(r["result"]["attempted"])
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"bench_diff: cannot read input: {e!r}", file=sys.stderr)
        return 2

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    problems = []
    for w in [w["name"] for w in spec["workloads"]]:
        sides = {r["side"] for r in runs if r["workload"] == w}
        if sides != {"parent", "change"}:
            problems.append(f"{w}: needs parent and change runs, has "
                            f"{sorted(sides)}")
            continue
        share_p = failed_share(runs, w, "parent")
        share_c = failed_share(runs, w, "change")
        if share_c > share_p:
            problems.append(f"{w}: failed share {share_p:.4g} -> {share_c:.4g}")
        for name, m in metrics.items():
            parent = metric_values(runs, w, "parent", name)
            change = metric_values(runs, w, "change", name)
            if not parent or not change:
                problems.append(f"{w}.{name}: missing in a run")
                continue
            med_p = statistics.median(parent.values())
            med_c = statistics.median(change.values())
            worse = worse_fraction(med_p, med_c, m["better"])
            flag = worse > m["bound"]
            print(f"{'FLAG' if flag else 'ok  '} {w:<11} {name:<15} parent "
                  f"{med_p:<12.6g} change {med_c:<12.6g} worse by "
                  f"{worse:+.3f} (bound {m['bound']}, n={len(parent)}/"
                  f"{len(change)})")
            if flag:
                problems.append(f"{w}.{name}: worse by {worse:+.3f}, bound "
                                f"{m['bound']}")
    for claim in args.claim:
        problems += check_claim(runs, metrics, claim)
    for p in problems:
        print(f"FLAG {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
