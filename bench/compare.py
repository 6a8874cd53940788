"""Compare two result sets of the benchmark, metric by metric and workload by workload.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines ``run.py --record`` appends.  Runs are paired by
seed.  A metric improved when the change wins at least nine tenths of the
pairs (ties count for neither) and the medians differ by more than the
parent's interquartile range.  An end-to-end metric got worse when the
change's median is worse than the parent's by more than the bound in
BENCHMARK.json; it is unresolved when the parent's own spread is wider than
that bound, unless every change run beats every parent run.  A per-layer
metric, which has no bound, got worse by the mirror of the improvement
rule.  Counts are compared exactly, and only when they repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def classify(parent, change, better, bound=None, count=False) -> str:
    """improved, worse, unchanged or unresolved; ``parent`` and ``change``
    are paired run by run."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    gain = sign * (c_med - p_med)
    if count:
        if len(set(parent)) > 1 or len(set(change)) > 1:
            return "unresolved"
        return "improved" if gain > 0 else "worse" if gain < 0 else "unchanged"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    q1, q3 = quartiles(parent)
    spread = q3 - q1
    if wins >= WIN_SHARE * len(pairs) and gain > spread:
        return "improved"
    if bound is None:
        return "worse" if losses >= WIN_SHARE * len(pairs) and -gain > spread else "unchanged"
    if -gain > bound * abs(p_med):
        return "worse"
    separated = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound * abs(p_med) and not separated:
        return "unresolved"
    return "unchanged"


def load(path: Path) -> dict:
    """{(workload, metric): {seed: value}} from a --record file."""
    out = defaultdict(dict)
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        meta = record["meta"]
        for name, metric in record["result"]["metrics"].items():
            out[(meta["workload"], name)][meta["seed"]] = metric["value"]
    return out


def compare(parent: dict, change: dict, spec: dict) -> list[dict]:
    metrics = {m["name"]: (m, m.get("bound")) for m in spec["end_to_end"]}
    metrics.update({m["name"]: (m, None) for m in spec["per_layer"]})
    rows = []
    for key in sorted(parent.keys() & change.keys()):
        workload, name = key
        if name not in metrics:
            continue
        metric, bound = metrics[name]
        seeds = sorted(parent[key].keys() & change[key].keys())
        if not seeds:
            continue
        p = [parent[key][s] for s in seeds]
        c = [change[key][s] for s in seeds]
        rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                     "pairs": len(seeds), "parent": p, "change": c,
                     "verdict": classify(p, c, metric["better"], bound,
                                         count=metric["unit"] == "count")})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(args.parent), load(args.change), spec)
    for row in rows:
        (pq1, pq3), (cq1, cq3) = quartiles(row["parent"]), quartiles(row["change"])
        print(f"{row['workload']:15s} {row['metric']:30s} "
              f"{statistics.median(row['parent']):.6g} [{pq1:.6g}, {pq3:.6g}] -> "
              f"{statistics.median(row['change']):.6g} [{cq1:.6g}, {cq3:.6g}] "
              f"{row['unit']} pairs={row['pairs']} {row['verdict']}")
    return 0 if rows else 1


if __name__ == "__main__":
    sys.exit(main())
