"""Tests for the metrics registry: kinds, quantiles, snapshots,
bounded streaming state, labels and cross-process merging."""

import json
import math
import random
import sys

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    DEFAULT_HISTOGRAM_RETENTION,
    Histogram,
    MetricsRegistry,
)


def test_counter_accumulates():
    registry = MetricsRegistry()
    counter = registry.counter("drives_processed")
    counter.inc()
    counter.inc(41)
    assert registry.counter("drives_processed").value == 42


def test_counter_rejects_negative_increment():
    with pytest.raises(ObservabilityError, match="cannot decrease"):
        MetricsRegistry().counter("c").inc(-1)


def test_gauge_is_last_write_wins():
    registry = MetricsRegistry()
    registry.gauge("clusters_found").set(5)
    registry.gauge("clusters_found").set(3)
    assert registry.gauge("clusters_found").value == 3.0


def test_same_name_returns_same_instance():
    registry = MetricsRegistry()
    assert registry.counter("x") is registry.counter("x")


def test_kind_clash_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ObservabilityError, match="already registered"):
        registry.gauge("x")


def test_histogram_quantiles_exact_on_known_data():
    histogram = Histogram("window_length")
    for value in range(1, 101):  # 1..100
        histogram.observe(float(value))
    assert histogram.count == 100
    assert histogram.mean == pytest.approx(50.5)
    assert histogram.quantile(0.0) == 1.0
    assert histogram.quantile(1.0) == 100.0
    assert histogram.quantile(0.5) == pytest.approx(50.5)
    assert histogram.quantile(0.9) == pytest.approx(90.1)


def test_histogram_single_value():
    histogram = Histogram("h")
    histogram.observe(7.0)
    assert histogram.quantile(0.5) == 7.0
    snap = histogram.snapshot()
    assert snap["min"] == snap["max"] == snap["p99"] == 7.0


def test_histogram_rejects_non_finite():
    with pytest.raises(ObservabilityError, match="non-finite"):
        Histogram("h").observe(float("nan"))


def test_histogram_rejects_quantile_out_of_range():
    with pytest.raises(ObservabilityError, match="outside"):
        Histogram("h").quantile(1.5)


def test_empty_histogram_snapshot_has_count_only():
    assert Histogram("h").snapshot() == {"kind": "histogram", "count": 0}


def test_snapshot_is_sorted_and_json_serializable():
    registry = MetricsRegistry()
    registry.counter("zeta").inc()
    registry.gauge("alpha").set(1.5)
    registry.histogram("mid").observe(2.0)
    snapshot = registry.snapshot()
    assert list(snapshot) == ["alpha", "mid", "zeta"]
    assert snapshot["alpha"] == {"kind": "gauge", "value": 1.5}
    parsed = json.loads(registry.to_json())
    assert parsed["mid"]["count"] == 1


def test_registry_len_and_contains():
    registry = MetricsRegistry()
    assert "x" not in registry
    registry.counter("x")
    assert "x" in registry
    assert len(registry) == 1
    assert registry.names() == ("x",)

# -- bounded streaming state ----------------------------------------------


def test_histogram_streaming_state_is_bounded_over_a_million_samples():
    """The regression the streaming upgrade exists for: histogram memory
    must stay O(retention) no matter how long the stream runs."""
    histogram = Histogram("verdict_stage")
    for i in range(1_000_000):
        histogram.observe((i % 1000) / 1000.0)
    assert histogram.count == 1_000_000
    assert len(histogram._values) <= DEFAULT_HISTOGRAM_RETENTION
    assert sys.getsizeof(histogram._values) < 10 * DEFAULT_HISTOGRAM_RETENTION
    # exact aggregates survive compaction untouched
    assert histogram.min == 0.0
    assert histogram.max == 0.999
    assert histogram.mean == pytest.approx(0.4995)
    # quantiles stay close even from the compacted reservoir
    assert histogram.quantile(0.5) == pytest.approx(0.5, abs=0.02)
    assert histogram.cumulative_buckets()[-1] == (math.inf, 1_000_000)


def _sorted_quantile(values, q):
    """Linear-interpolation quantile of a plain sorted list."""
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def test_histogram_quantiles_exact_below_retention_cap():
    bounded = Histogram("h", retention=DEFAULT_HISTOGRAM_RETENTION)
    rng = random.Random(7)
    values = [rng.uniform(-5.0, 50.0) for _ in range(1000)]
    for value in values:
        bounded.observe(value)
    assert len(bounded._values) == len(values)
    for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
        assert bounded.quantile(q) == pytest.approx(
            _sorted_quantile(values, q), rel=1e-12, abs=1e-12)


def test_histogram_compaction_is_deterministic():
    a = Histogram("h")
    b = Histogram("h")
    for i in range(50_000):
        a.observe(float(i % 977))
        b.observe(float(i % 977))
    assert a._values == b._values
    assert a.quantile(0.5) == b.quantile(0.5)


def _histogram_state(histogram):
    """Every slot, as text — so ``0.0`` and ``-0.0`` differ."""
    return repr({slot: getattr(histogram, slot)
                 for slot in Histogram.__slots__})


@pytest.mark.parametrize("retention", [2, 3, 8, 64])
def test_observe_many_equals_a_loop_of_observe(retention):
    """Same count, sequential sum, min/max, buckets and reservoir (values,
    stride, skip) as one ``observe`` per value, across compactions."""
    rng = random.Random(retention)
    for _ in range(40):
        looped = Histogram("h", retention=retention)
        batched = Histogram("h", retention=retention)
        for _ in range(rng.randint(1, 8)):
            batch = [rng.choice([rng.uniform(-20.0, 20.0), 0.0, -0.0,
                                 rng.randint(-3, 3), 1e7, -2.5e-3])
                     for _ in range(rng.randint(0, 50))]
            for value in batch:
                looped.observe(value)
            batched.observe_many(iter(batch))
            assert _histogram_state(batched) == _histogram_state(looped)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "x"])
def test_observe_many_refuses_like_the_loop(bad):
    """A bad value raises the loop's error and leaves the loop's state:
    everything before it recorded, nothing after it."""
    batch = [1.0, -2.0, 3.5, bad, 4.0]
    looped, batched = Histogram("h", retention=2), Histogram("h", retention=2)
    looped.observe_many([0.5, 0.25])
    batched.observe_many([0.5, 0.25])
    errors = []
    for histogram, record in ((looped, lambda: [looped.observe(v)
                                                for v in batch]),
                              (batched, lambda: batched.observe_many(batch))):
        with pytest.raises((ObservabilityError, ValueError)) as caught:
            record()
        errors.append(str(caught.value))
    assert errors[0] == errors[1]
    assert batched.count == 5
    assert _histogram_state(batched) == _histogram_state(looped)


def test_histogram_cumulative_buckets_end_at_inf():
    histogram = Histogram("h")
    histogram.observe(-2.0)
    histogram.observe(0.3)
    histogram.observe(1e9)  # beyond the largest finite bound
    pairs = histogram.cumulative_buckets()
    assert len(pairs) == len(BUCKET_BOUNDS) + 1
    assert pairs[-1][0] == float("inf")
    assert pairs[-1][1] == 3
    cumulative = [count for _bound, count in pairs]
    assert cumulative == sorted(cumulative)


def test_histogram_retention_must_be_positive():
    with pytest.raises(ObservabilityError, match="retention"):
        Histogram("h", retention=0)


# -- labels ----------------------------------------------------------------


def test_labeled_metrics_are_distinct_series():
    registry = MetricsRegistry()
    registry.counter("telemetry_requests", labels={"endpoint": "metrics"}).inc(2)
    registry.counter("telemetry_requests", labels={"endpoint": "health"}).inc()
    snapshot = registry.snapshot()
    assert snapshot['telemetry_requests{endpoint="metrics"}']["value"] == 2.0
    assert snapshot['telemetry_requests{endpoint="health"}']["value"] == 1.0


def test_label_order_does_not_matter():
    registry = MetricsRegistry()
    a = registry.counter("c", labels={"x": "1", "y": "2"})
    b = registry.counter("c", labels={"y": "2", "x": "1"})
    assert a is b


def test_kind_clash_enforced_across_label_sets():
    registry = MetricsRegistry()
    registry.counter("x", labels={"a": "1"})
    with pytest.raises(ObservabilityError, match="already registered"):
        registry.gauge("x", labels={"b": "2"})


def test_metric_names_must_be_snake_case():
    with pytest.raises(ObservabilityError, match="snake_case"):
        MetricsRegistry().counter("Bad-Name")
