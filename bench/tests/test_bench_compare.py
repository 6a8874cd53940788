"""The compare rule on fixed numbers, and the spec's agreement with the code."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from compare import classify, compare, load  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]


def test_improved_needs_wins_and_a_gap_wider_than_the_parent_iqr():
    assert classify(PARENT, [p - 1.0 for p in PARENT], "lower", bound=0.1) == "improved"
    # wins every pair, but by less than the parent's own spread
    assert classify(PARENT, [p - 0.05 for p in PARENT], "lower", bound=0.1) == "unchanged"


def test_eight_wins_of_ten_is_not_an_improvement():
    change = [p - 1.0 for p in PARENT[:8]] + [p + 0.5 for p in PARENT[8:]]
    assert classify(PARENT, change, "lower", bound=0.1) == "unchanged"


def test_worse_only_beyond_the_bound():
    assert classify(PARENT, [p * 1.2 for p in PARENT], "lower", bound=0.1) == "worse"
    assert classify(PARENT, [p * 1.05 for p in PARENT], "lower", bound=0.1) == "unchanged"


def test_higher_is_better():
    assert classify(PARENT, [p + 1.0 for p in PARENT], "higher", bound=0.1) == "improved"
    assert classify(PARENT, [p * 0.8 for p in PARENT], "higher", bound=0.1) == "worse"


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 1.5, 2.0, 2.5, 3.0, 1.2, 1.8, 2.2, 2.8, 1.1]
    assert classify(parent, [p * 1.05 for p in parent], "lower", bound=0.1) == "unresolved"


def test_per_layer_metrics_mirror_the_improvement_rule():
    assert classify(PARENT, [p + 1.0 for p in PARENT], "lower") == "worse"
    assert classify(PARENT, [p + 0.05 for p in PARENT], "lower") == "unchanged"


def test_counts_compare_exactly_and_only_when_they_repeat():
    assert classify([402] * 10, [2] * 10, "lower", count=True) == "improved"
    assert classify([402] * 10, [402] * 10, "lower", count=True) == "unchanged"
    assert classify([402] * 9 + [403], [2] * 10, "lower", count=True) == "unresolved"


def test_compare_pairs_records_by_seed(tmp_path):
    def write(path, values):
        lines = [json.dumps({"meta": {"workload": "tile251_fit", "seed": seed},
                             "result": {"metrics": {"wall_s": {"value": v, "unit": "s"}}}})
                 for seed, v in values]
        path.write_text("\n".join(lines) + "\n")

    write(tmp_path / "p.jsonl", [(s, 10.0 + 0.1 * s) for s in range(10)])
    write(tmp_path / "c.jsonl", [(s, 5.0 + 0.1 * s) for s in reversed(range(10))])
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                            "bound": 0.1}], "per_layer": []}
    rows = compare(load(tmp_path / "p.jsonl"), load(tmp_path / "c.jsonl"), spec)
    assert [(r["workload"], r["metric"], r["pairs"], r["verdict"]) for r in rows] == [
        ("tile251_fit", "wall_s", 10, "improved")]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
