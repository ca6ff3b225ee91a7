#!/usr/bin/env python3
"""Median and quartiles of the run records of one workload:

    python3 perfbench/summarize.py train [--trace 1]

Reads ``.perfbench/records/<workload>-seed*-trace<T>.json`` and prints, per
metric, the number of runs, the median, the first and third quartiles as
``statistics.quantiles(values, n=4)`` gives them, and their distance as a
share of the median next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ROOT / ".perfbench" / "records"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    records = [json.loads(p.read_text(encoding="utf-8")) for p in
               sorted(RECORDS.glob(f"{args.workload}-seed*-trace{args.trace}"
                                   ".json"))]
    if not records:
        raise SystemExit(f"no records for {args.workload} in {RECORDS}")
    seeds = [r["seed"] for r in records]
    failed = sum(r["failed"] for r in records)
    print(f"{args.workload}: {len(records)} runs, seeds {seeds}, "
          f"{failed} failed operations")
    print(f"{'metric':32} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for name in records[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in records]
        unit = records[0]["result"]["metrics"][name]["unit"]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        print(f"{name:32} {len(values):3d} {median:12.5g} {q1:12.5g} "
              f"{q3:12.5g} {spread:7.3f} {bound if bound else '':>6} {unit}")
    slowdowns = [r["speed"]["slowdown"] for r in records]
    print(f"reference slowdown: median {statistics.median(slowdowns):.3f}, "
          f"range {min(slowdowns):.3f}-{max(slowdowns):.3f}")


if __name__ == "__main__":
    main()
