#!/usr/bin/env python3
"""Compare two benchmark result sets against the bounds in BENCHMARK.json.

    python3 dpbench/compare.py before.jsonl after.jsonl
    python3 dpbench/compare.py before.jsonl          # one set: spreads only

Result sets come from collect.py. For every workload and metric the
report gives each set's median and quartiles (statistics.quantiles,
n=4) and the spread, the quartile distance as a share of the median.
An end-to-end metric then gets a verdict:

  unresolved  a set's spread exceeds the bound, and the runs of the two
              sets overlap, so the bound cannot be resolved;
  worse       the second median is worse than the first by more than
              the bound;
  better      every run of the second set beats every run of the first;
  same        otherwise.

Per-layer metrics have no bound and are reported without a verdict.
Each set's share of failed operations is compared exactly, and where a
set holds both untraced and traced runs of a workload the tracing
overhead (the drop of trace.samples_per_s below samples_per_s) is
shown. Exits 1 when a metric is worse or unresolved, a share of failed
operations differs, a run reported incorrect outputs, or the two sets
were collected with different run lengths.
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path):
    """@return ({(workload, trace): [result, ...]}, {run seconds})."""
    runs = defaultdict(list)
    seconds = set()
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs[(rec["workload"], rec["trace"])].append(rec["result"])
                seconds.add(rec["seconds"])
    return runs, seconds


def quartiles(values):
    # statistics.quantiles extrapolates past the data below four values.
    if len(values) < 4:
        return min(values), statistics.median(values), max(values)
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    if q1 == q3:
        return 0.0
    return (q3 - q1) / abs(med) if med else float("inf")


def worse_share(a_med, b_med, better):
    """@return how much worse b is than a, as a share of a (<0: better)."""
    change = (b_med - a_med) / abs(a_med) if a_med else 0.0
    return change if better == "lower" else -change


def verdict(a, b, metric):
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    if (max(b) < min(a)) if lower else (min(b) > max(a)):
        return "better"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    if worse_share(statistics.median(a), statistics.median(b),
                   metric["better"]) > bound:
        return "worse"
    return "same"


def fmt(x):
    return f"{x:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("first")
    ap.add_argument("second", nargs="?")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    loaded = [load(p) for p in (args.first, args.second) if p]
    lengths = set().union(*(secs for _, secs in loaded))
    if len(lengths) > 1:
        sys.exit(f"compare: runs of {sorted(lengths)} seconds cannot be "
                 "compared")
    sets = [runs for runs, _ in loaded]

    status = 0
    for w in spec["workloads"]:
        name = w["name"]
        print(f"== {name}")
        for trace, metrics in ((0, spec["end_to_end"]),
                               (1, spec["per_layer"])):
            groups = [s.get((name, trace), []) for s in sets]
            if not all(groups):
                continue
            shares = []
            for g in groups:
                attempted = sum(r["attempted"] for r in g)
                failed = sum(r["failed"] for r in g)
                shares.append((failed, attempted))
                if not all(r["correct"] for r in g):
                    print(f"  INCORRECT runs in a {'traced' if trace else 'untraced'} set")
                    status = 1
            share_txt = ", ".join(f"{f}/{a}" for f, a in shares)
            print(f"  {'traced' if trace else 'untraced'} runs: "
                  f"{', '.join(str(len(g)) for g in groups)}; failed "
                  f"{share_txt}")
            if len(shares) == 2 and (shares[0][0] * shares[1][1] !=
                                     shares[1][0] * shares[0][1]):
                print("  failed share DIFFERS")
                status = 1
            for m in metrics:
                vals = [[r["metrics"][m["name"]]["value"] for r in g]
                        for g in groups]
                cols = []
                for v in vals:
                    q1, med, q3 = quartiles(v)
                    cols.append(f"median {fmt(med)} [{fmt(q1)}, {fmt(q3)}]"
                                f" spread {spread(v):.3f}")
                line = f"  {m['name']:<32} {m['unit']:<11} " + " | ".join(cols)
                if "bound" in m:
                    line += f" bound {m['bound']}"
                    if len(vals) == 2:
                        change = worse_share(statistics.median(vals[0]),
                                             statistics.median(vals[1]),
                                             m["better"])
                        v = verdict(vals[0], vals[1], m)
                        line += f" worse-by {change:+.3f} -> {v}"
                        if v in ("worse", "unresolved"):
                            status = 1
                    elif spread(vals[0]) > m["bound"]:
                        line += " -> spread exceeds bound"
                print(line)
        for i, s in enumerate(sets):
            untraced = s.get((name, 0), [])
            traced = s.get((name, 1), [])
            if untraced and traced:
                plain = statistics.median(
                    r["metrics"]["samples_per_s"]["value"] for r in untraced)
                with_trace = statistics.median(
                    r["metrics"]["trace.samples_per_s"]["value"]
                    for r in traced)
                print(f"  set {i + 1} tracing overhead: samples_per_s "
                      f"{fmt(plain)} untraced, {fmt(with_trace)} traced "
                      f"({(1 - with_trace / plain) * 100:+.1f}%)")
    sys.exit(status)


if __name__ == "__main__":
    main()
