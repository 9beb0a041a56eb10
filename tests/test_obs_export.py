"""Tests for the telemetry export layer: Prometheus exposition golden
output and atomic/periodic snapshot files."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.export import (
    PROMETHEUS_CONTENT_TYPE,
    PeriodicSnapshotWriter,
    render_prometheus,
    write_snapshot,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("samples_scored").inc(42)
    registry.gauge("drives_tracked").set(7)
    registry.counter("telemetry_requests",
                     labels={"endpoint": "metrics"}).inc(3)
    histogram = registry.histogram("verdict_stage")
    histogram.observe(-0.5)
    histogram.observe(-0.25)
    return registry


def test_prometheus_golden_output():
    """The exposition is stable enough to pin line by line."""
    registry = MetricsRegistry()
    registry.counter("samples_scored").inc(42)
    registry.gauge("drives_tracked").set(7)
    text = render_prometheus(registry)
    assert text == (
        "# TYPE repro_drives_tracked gauge\n"
        "repro_drives_tracked 7\n"
        "# TYPE repro_samples_scored_total counter\n"
        "repro_samples_scored_total 42\n"
    )


def test_prometheus_counters_get_total_suffix_and_labels():
    text = render_prometheus(_sample_registry())
    assert 'repro_telemetry_requests_total{endpoint="metrics"} 3' in text
    assert "# TYPE repro_telemetry_requests_total counter" in text


def test_prometheus_histogram_is_cumulative_with_inf_bucket():
    text = render_prometheus(_sample_registry())
    lines = [line for line in text.splitlines()
             if line.startswith("repro_verdict_stage")]
    bucket_lines = [line for line in lines if "_bucket" in line]
    assert bucket_lines[-1].startswith('repro_verdict_stage_bucket{le="+Inf"}')
    assert bucket_lines[-1].endswith(" 2")
    counts = [int(line.rsplit(" ", 1)[1]) for line in bucket_lines]
    assert counts == sorted(counts)
    assert "repro_verdict_stage_sum -0.75" in text
    assert "repro_verdict_stage_count 2" in text


def test_prometheus_rendering_is_deterministic():
    assert (render_prometheus(_sample_registry())
            == render_prometheus(_sample_registry()))


def test_prometheus_escapes_label_values():
    registry = MetricsRegistry()
    registry.counter("c", labels={"k": 'a"b\\c\nd'}).inc()
    text = render_prometheus(registry)
    assert 'repro_c_total{k="a\\"b\\\\c\\nd"} 1' in text


def test_prometheus_custom_namespace_and_empty_registry():
    registry = MetricsRegistry()
    registry.counter("x").inc()
    assert render_prometheus(registry, namespace="acme").startswith(
        "# TYPE acme_x_total")
    assert render_prometheus(MetricsRegistry()) == ""
    assert "0.0.4" in PROMETHEUS_CONTENT_TYPE


def test_write_snapshot_is_atomic_and_combined(tmp_path):
    registry = _sample_registry()
    tracer = Tracer()
    with tracer.span("stage"):
        pass
    path = tmp_path / "snap.json"
    write_snapshot(registry, path, tracer=tracer)
    payload = json.loads(path.read_text())
    assert payload["metrics"]["samples_scored"]["value"] == 42.0
    assert payload["trace"]["spans"][0]["name"] == "stage"
    assert not (tmp_path / "snap.json.tmp").exists()


def test_write_snapshot_unwritable_path_raises(tmp_path):
    with pytest.raises(ObservabilityError, match="cannot write"):
        write_snapshot(MetricsRegistry(), tmp_path / "absent" / "x.json")


def test_periodic_writer_writes_final_snapshot_on_stop(tmp_path):
    registry = MetricsRegistry()
    path = tmp_path / "snap.json"
    with PeriodicSnapshotWriter(registry, path, interval_s=60.0) as writer:
        registry.counter("samples_scored").inc(9)
    assert writer.writes >= 1
    assert json.loads(path.read_text())[
        "metrics"]["samples_scored"]["value"] == 9.0


def test_periodic_writer_rejects_bad_interval(tmp_path):
    with pytest.raises(ObservabilityError, match="interval"):
        PeriodicSnapshotWriter(MetricsRegistry(), tmp_path / "s.json", 0.0)
