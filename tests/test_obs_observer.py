"""Tests for the observer seam: no-op default, telemetry routing and
pipeline integration."""

import time

import pytest

from repro.core.pipeline import CharacterizationPipeline
from repro.obs import (
    NULL_OBSERVER,
    MetricsRegistry,
    NoopObserver,
    PipelineObserver,
    TelemetryObserver,
    Tracer,
)
from repro.sim.config import FleetConfig
from repro.sim.fleet import simulate_fleet


def test_noop_observer_accepts_everything():
    obs = NULL_OBSERVER
    with obs.span("anything", k=3):
        obs.count("c")
        obs.gauge("g", 1.0)
        obs.observe("h", 2.0)
        obs.observe_many("h", [2.0, 3.0])
        obs.event("message", detail="x")


def test_noop_span_is_shared_and_reentrant():
    obs = NoopObserver()
    first = obs.span("a")
    second = obs.span("b", attr=1)
    assert first is second  # one reusable null context manager
    with first:
        with second:
            pass


def test_noop_overhead_is_small():
    """The no-op path must be cheap enough for per-drive call sites."""
    obs = NULL_OBSERVER
    start = time.perf_counter()
    for _ in range(10_000):
        with obs.span("x"):
            obs.count("c")
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5  # generous bound: ~50 µs per iteration


def test_telemetry_observer_routes_to_tracer_and_metrics():
    obs = TelemetryObserver()
    with obs.span("stage", k=3):
        obs.count("events", 2)
        obs.gauge("level", 7.5)
        obs.observe("sizes", 10.0)
    assert obs.tracer.find("stage").attributes == {"k": 3}
    assert obs.metrics.counter("events").value == 2
    assert obs.metrics.gauge("level").value == 7.5
    assert obs.metrics.histogram("sizes").count == 1


def test_observe_many_routes_one_batch_into_the_histogram():
    """The telemetry observer records a batch into the named histogram
    exactly as one ``observe`` per value would."""
    values = [-1.5, 0.0, 2.25, -0.0, 7.0]
    observer = TelemetryObserver()
    reference = MetricsRegistry()
    for value in values:
        reference.histogram("verdict_stage").observe(value)
    observer.observe_many("verdict_stage", values)
    batched = observer.metrics.histogram("verdict_stage")
    expected = reference.histogram("verdict_stage")
    assert batched.snapshot() == expected.snapshot()
    assert batched.cumulative_buckets() == expected.cumulative_buckets()


def test_telemetry_observer_accepts_injected_backends():
    tracer, metrics = Tracer(), MetricsRegistry()
    obs = TelemetryObserver(tracer=tracer, metrics=metrics)
    with obs.span("s"):
        obs.count("c")
    assert tracer.find("s") is not None
    assert metrics.counter("c").value == 1


def test_telemetry_section_shape():
    obs = TelemetryObserver()
    with obs.span("stage"):
        obs.count("c")
    section = obs.telemetry_section()
    assert set(section) == {"stage_timings", "metrics"}
    assert section["stage_timings"]["stage"] > 0
    assert section["metrics"]["c"] == {"kind": "counter", "value": 1.0}


def test_observers_satisfy_the_protocol():
    assert isinstance(NULL_OBSERVER, PipelineObserver)
    assert isinstance(TelemetryObserver(), PipelineObserver)


def test_pipeline_emits_all_stages_and_metrics():
    obs = TelemetryObserver()
    fleet = simulate_fleet(FleetConfig(n_drives=600, seed=11), observer=obs)
    CharacterizationPipeline(seed=11, observer=obs).run(fleet.dataset)

    span_names = {span.name for span in obs.tracer.walk()}
    assert {"simulate-fleet", "pipeline", "normalize", "failure-records",
            "cluster", "signatures", "influence", "predict"} <= span_names
    for name in ("normalize", "failure-records", "cluster", "signatures",
                 "influence", "predict"):
        assert obs.tracer.find(name).wall_s > 0
    assert len(obs.metrics.names()) >= 8
    assert obs.metrics.counter("drives_processed").value == 600
    assert obs.metrics.histogram("window_length").count > 0


def test_uninstrumented_pipeline_matches_instrumented_results():
    fleet = simulate_fleet(FleetConfig(n_drives=600, seed=11))
    plain = CharacterizationPipeline(seed=11).run(fleet.dataset)
    observed = CharacterizationPipeline(
        seed=11, observer=TelemetryObserver()
    ).run(fleet.dataset)
    assert plain.records.serials == observed.records.serials
    assert (plain.categorization.labels == observed.categorization.labels).all()
    assert set(plain.signatures) == set(observed.signatures)
    for failure_type, prediction in plain.predictions.items():
        assert observed.predictions[failure_type].rmse == pytest.approx(
            prediction.rmse
        )
