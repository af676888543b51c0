"""tools/bench_pairs.py: the per-metric summary of alternating pairs and
the claim rule."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def pair_runs(parent, change, metric):
    runs = []
    for pair, (a, b) in enumerate(zip(parent, change)):
        runs.append({"pair": pair, "side": "parent", "metrics": {metric: a}})
        runs.append({"pair": pair, "side": "change", "metrics": {metric: b}})
    return runs


def test_summary_counts_wins_in_the_metric_direction():
    parent = [100.0, 110.0, 90.0, 105.0, 95.0]
    change = [130.0, 120.0, 80.0, 140.0, 125.0]
    up = bench_pairs.summarize(pair_runs(parent, change, "m"), {"m": "higher"})["m"]
    assert up["change_better_pairs"] == 4 and up["pairs"] == 5
    assert up["parent"] == {"q1": 95.0, "median": 100.0, "q3": 105.0}
    assert up["parent_spread"] == pytest.approx(0.1)
    assert up["gain"] == pytest.approx(0.25)
    assert not up["claim_met"]
    down = bench_pairs.summarize(pair_runs(parent, change, "m"), {"m": "lower"})["m"]
    assert down["change_better_pairs"] == 1
    assert down["gain"] == pytest.approx(-0.25)
    won = bench_pairs.summarize(pair_runs(parent, [p * 1.5 for p in parent], "m"), {"m": "higher"})
    assert won["m"]["claim_met"]


def test_claim_needs_nine_tenths_of_the_pairs_and_a_gain_beyond_the_spread():
    row = {"change_better_pairs": 9, "pairs": 10, "gain": 0.2, "parent_spread": 0.1}
    assert bench_pairs.claim_met(row)
    assert not bench_pairs.claim_met({**row, "change_better_pairs": 8})
    assert not bench_pairs.claim_met({**row, "gain": 0.1})
