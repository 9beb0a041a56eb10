"""The pure summary of ``scripts/bench_pairs.py``: medians, quartiles,
win counts and ratios over alternating benchmark pairs."""

import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "scripts" / "bench_pairs.py"
sys.path.insert(0, str(SCRIPT.parent))
from bench_pairs import render, summarize  # noqa: E402

BETTER = {"samples_per_s": "higher", "latency_p50_ms": "lower"}


def _pairs(base, head, name="samples_per_s"):
    return [{"base": {name: b}, "head": {name: h}} for b, h in zip(base, head)]


def test_medians_quartiles_and_ratio():
    summary = summarize(_pairs([10, 20, 30, 40, 50], [15, 25, 35, 45, 55]),
                        BETTER)
    row = summary["samples_per_s"]
    assert row["base"] == {"median": 30, "q1": 20, "q3": 40}
    assert row["head"] == {"median": 35, "q1": 25, "q3": 45}
    assert row["ratio"] == pytest.approx(35 / 30)
    assert (row["base_wins"], row["head_wins"], row["pairs"]) == (0, 5, 5)


def test_wins_follow_the_metric_direction_and_ties_count_for_neither():
    pairs = _pairs([5.0, 5.0, 5.0, 5.0], [4.0, 6.0, 5.0, 3.0],
                   name="latency_p50_ms")
    row = summarize(pairs, BETTER)["latency_p50_ms"]
    assert (row["head_wins"], row["base_wins"]) == (2, 1)


def test_workload_prefixes_and_unknown_or_partial_metrics():
    pairs = [{"base": {"fleet-tick.samples_per_s": 1.0, "other": 1.0,
                       "offline.samples_per_s": 2.0},
              "head": {"fleet-tick.samples_per_s": 2.0, "other": 2.0}}]
    summary = summarize(pairs, BETTER)
    assert list(summary) == ["fleet-tick.samples_per_s"]
    assert summary["fleet-tick.samples_per_s"]["base"] == {
        "median": 1.0, "q1": 1.0, "q3": 1.0}
    assert summarize([], BETTER) == {}


def test_render_lists_every_metric():
    text = render(summarize(_pairs([1, 2], [3, 4]), BETTER))
    assert "samples_per_s" in text and "0/2" in text
