"""Compare two result sets metric by metric.

A result set is a results file of run records, one JSON object per line.
For every workload and metric both sets measured, the comparison reports
each side's median and quartiles and a verdict against the metric's bound
from BENCHMARK.json:

- ``worse`` or ``better``: the medians differ by more than the bound;
- ``same``: they differ by no more than the bound;
- ``unresolved``: the spread of either side (quartile distance over
  median) is wider than the bound, unless every new run beats every old one;
- ``-``: the metric has no bound (a per-layer metric).
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load_records(path) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                for name, value in record["metrics"].items():
                    values[(record["workload"], name)].append(value)
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Quartile distance as a share of the median; infinite below two runs."""
    if len(values) < 2:
        return float("inf")
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(old, new, bound, better: str) -> str:
    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(old), spread(new)) > bound:
        if better == "lower":
            wins = max(new) < min(old)
        else:
            wins = min(new) > max(old)
        return "better" if wins else "unresolved"
    base = statistics.median(old)
    change = sign * (statistics.median(new) - base) / abs(base) if base else 0.0
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(old_path, new_path, spec: dict) -> list[dict]:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    old, new = load_records(old_path), load_records(new_path)
    rows = []
    for key in sorted(set(old) & set(new)):
        workload, name = key
        m = bounds.get(name, {})
        rows.append({
            "workload": workload,
            "metric": name,
            "old": quartiles(sorted(old[key])),
            "new": quartiles(sorted(new[key])),
            "verdict": verdict(old[key], new[key], m.get("bound"),
                               m.get("better", "lower")),
        })
    return rows


def print_rows(rows) -> None:
    print(f"{'workload':<24} {'metric':<36} {'old q1/median/q3':>32} "
          f"{'new q1/median/q3':>32}  verdict")
    for r in rows:
        old = "/".join(f"{v:.4g}" for v in r["old"])
        new = "/".join(f"{v:.4g}" for v in r["new"])
        print(f"{r['workload']:<24} {r['metric']:<36} {old:>32} {new:>32}  "
              f"{r['verdict']}")
