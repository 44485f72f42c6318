#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark runs (bench/e2e).

    python3 bench/e2e/compare.py PARENT_RUNS/ CHANGE_RUNS/ [--claim METRIC@WORKLOAD ...]

Each directory holds results files written by `run.py` (each file is one
run of every workload). For every workload and end-to-end metric it
prints each side's median and quartiles, how many pairs the change won,
and a verdict, using the direction and bound BENCHMARK.json gives the
metric:

  improved    the change won at least 9 in 10 pairs, and its median is
              better than the parent's by more than the parent's
              interquartile range
  unresolved  the parent's own spread (interquartile range over median)
              is wider than the bound, and not every change run beats
              every parent run
  worse       the change's median is worse than the parent's by more
              than the bound
  no worse    otherwise

Run k of one side is paired with run k of the other, in file-name order;
ties count for neither side. Exits 1 if any verdict is `worse`, if a
workload's error rate (failed / attempted queries) is higher on the
change, or if a --claim is not `improved`.
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def load_runs(directory):
    def order(path):
        match = re.search(r"-(\d+)\.json$", path.name)
        return (int(match.group(1)) if match else 0, path.name)
    paths = sorted(Path(directory).glob("*.json"), key=order)
    if not paths:
        sys.exit(f"compare.py: no results files in {directory}")
    return [json.loads(p.read_text())["workloads"] for p in paths]


def values(runs, workload, metric):
    return [run[workload]["untraced"]["metrics"][metric]["value"]
            for run in runs if workload in run]


def error_rate(runs, workload):
    results = [run[workload][kind] for run in runs if workload in run
               for kind in ("untraced", "traced") if kind in run[workload]]
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(parent, change, better, bound):
    """Returns (verdict, pairs won, pairs)."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gain = sign * (cmed - pmed)
    if pairs and won >= 0.9 * len(pairs) and gain > p3 - p1:
        return "improved", won, len(pairs)
    spread = (p3 - p1) / abs(pmed) if pmed else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", won, len(pairs)
    if -gain > bound * abs(pmed):
        return "worse", won, len(pairs)
    return "no worse", won, len(pairs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC@WORKLOAD")
    args = parser.parse_args()
    parent, change = load_runs(args.parent), load_runs(args.change)
    claims = set(args.claim)
    failures = []
    print(f"parent: {len(parent)} runs  change: {len(change)} runs")
    for workload in (w["name"] for w in SPEC["workloads"]):
        print(f"\n{workload}")
        print(f"  {'metric':24s} {'parent median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} {'won':>6s}  verdict")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            p, c = values(parent, workload, name), values(change, workload, name)
            if not p or not c:
                failures.append(f"{name}@{workload}: no values")
                continue
            result, won, pairs = verdict(p, c, metric["better"],
                                         metric["bound"])
            pq, cq = quartiles(p), quartiles(c)
            print(f"  {name:24s} {pq[1]:12.5g} [{pq[0]:9.5g}, {pq[2]:9.5g}] "
                  f"{cq[1]:12.5g} [{cq[0]:9.5g}, {cq[2]:9.5g}] "
                  f"{won:>3d}/{pairs:<2d}  {result}")
            claim = f"{name}@{workload}"
            if result == "worse":
                failures.append(f"{claim}: worse by more than the bound "
                                f"{metric['bound']}")
            if claim in claims:
                claims.discard(claim)
                if result != "improved":
                    failures.append(f"{claim}: claimed, but {result}")
        p_err, c_err = error_rate(parent, workload), error_rate(change, workload)
        print(f"  {'error_rate':24s} {p_err:12.5g} {'':22s} {c_err:12.5g}")
        if c_err > p_err:
            failures.append(f"error_rate@{workload}: {c_err:g} > {p_err:g}")
    failures += [f"{claim}: no such metric@workload" for claim in claims]
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
