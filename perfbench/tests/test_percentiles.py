"""The tail-percentile rule: the highest percentile with 10 samples beyond."""

import pytest

from percentiles import (MIN_BEYOND, latency_summary, nearest_rank,
                         tail_percentile)


def beyond(values, threshold):
    return sum(1 for value in values if value > threshold)


@pytest.mark.parametrize("n", [11, 12, 37, 100, 500, 999, 1000, 1001, 4321])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n):
    values = list(range(n))
    pct = tail_percentile(n)
    assert beyond(values, nearest_rank(values, pct)) >= MIN_BEYOND
    if pct < 99.0:
        higher = nearest_rank(values, pct + 1e-6)
        assert beyond(values, higher) < MIN_BEYOND


def test_p99_needs_a_thousand_samples():
    assert tail_percentile(999) < 99.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(100_000) == 99.0


def test_too_few_samples_report_the_maximum():
    assert tail_percentile(MIN_BEYOND) is None
    assert latency_summary([3.0, 1.0, 2.0]) == {
        "n": 3, "p50": 2.0, "tail": 3.0, "tail_pct": 100.0}
    # 15 samples: the rule allows only p33, below the median.
    summary = latency_summary([float(v) for v in range(15)])
    assert (summary["tail"], summary["tail_pct"]) == (14.0, 100.0)
    # 20 samples: p50 itself leaves 10 beyond.
    assert latency_summary([float(v) for v in range(20)])["tail_pct"] == 50.0


def test_summary_of_a_large_sample():
    summary = latency_summary([float(v) for v in range(1, 2001)])
    assert summary["p50"] == 1000.0
    assert summary["tail_pct"] == 99.0
    assert summary["tail"] == 1980.0
