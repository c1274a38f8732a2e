"""Summarize the run records in perfbench/_runs/results.jsonl.

Usage: python3 perfbench/report.py [results.jsonl]

For each workload, untraced and traced runs apart, prints every metric's
run count, median, quartiles and quartile spread ((Q3 - Q1) / median),
plus the figures only the report shows (stage times, accuracy, fail rate).
"""

import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def rows(records):
    groups = defaultdict(lambda: defaultdict(list))
    for r in records:
        key = (r["workload"], "traced" if r["trace"] else "untraced")
        values = dict(r["figures"], **r["metrics"])
        for name, value in values.items():
            if value is not None:
                groups[key][name].append(value)
        groups[key]["_seeds"].append(r["seed"])
    return groups


def main(argv):
    path = argv[0] if argv else os.path.join(HERE, "_runs", "results.jsonl")
    with open(path) as f:
        records = [json.loads(line) for line in f if line.strip()]
    for (workload, mode), metrics in sorted(rows(records).items()):
        seeds = metrics.pop("_seeds")
        print("%s (%s): %d runs, seeds %s" % (workload, mode, len(seeds), sorted(seeds)))
        for name, values in sorted(metrics.items()):
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = stats.quartile_spread(values) if med else float("nan")
            else:
                q1 = q3 = spread = float("nan")
            print("  %-34s n=%-3d median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f"
                  % (name, len(values), med, q1, q3, spread))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
