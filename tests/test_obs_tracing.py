"""Tests for the span tracer: nesting, exception safety, JSON export."""

import json

import pytest

from repro.obs.tracing import Tracer


def test_spans_nest_into_a_tree():
    tracer = Tracer()
    with tracer.span("pipeline"):
        with tracer.span("cluster", k=3):
            with tracer.span("elbow"):
                pass
        with tracer.span("signatures"):
            pass
    assert len(tracer.roots) == 1
    root = tracer.roots[0]
    assert root.name == "pipeline"
    assert [child.name for child in root.children] == ["cluster", "signatures"]
    assert root.children[0].children[0].name == "elbow"
    assert root.children[0].attributes == {"k": 3}


def test_sequential_roots():
    tracer = Tracer()
    with tracer.span("simulate-fleet"):
        pass
    with tracer.span("pipeline"):
        pass
    assert [span.name for span in tracer.roots] == ["simulate-fleet",
                                                    "pipeline"]


def test_durations_are_positive_and_nested_spans_are_smaller():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10_000))
    outer = tracer.find("outer")
    inner = tracer.find("inner")
    assert outer.wall_s > 0
    assert inner.wall_s > 0
    assert inner.wall_s <= outer.wall_s
    assert outer.cpu_s >= 0


def test_exception_marks_span_and_propagates():
    tracer = Tracer()
    with pytest.raises(ValueError, match="boom"):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise ValueError("boom")
    inner = tracer.find("inner")
    outer = tracer.find("outer")
    assert inner.status == "error"
    assert inner.error == "ValueError: boom"
    assert outer.status == "error"
    # The stack unwound fully: a new span starts a new root.
    assert tracer.current is None
    with tracer.span("next"):
        pass
    assert [span.name for span in tracer.roots] == ["outer", "next"]


def test_span_durations_recorded_even_on_error():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("failing"):
            raise RuntimeError
    assert tracer.find("failing").wall_s > 0


def test_stage_timings_sums_repeated_names():
    tracer = Tracer()
    for _ in range(3):
        with tracer.span("stage"):
            pass
    timings = tracer.stage_timings()
    assert set(timings) == {"stage"}
    single = tracer.roots[0].wall_s
    assert timings["stage"] >= single


def test_find_returns_none_for_unknown_name():
    assert Tracer().find("nope") is None


def test_json_round_trip_is_lossless():
    tracer = Tracer()
    with tracer.span("pipeline", n_drives=500):
        with tracer.span("cluster", method="kmeans"):
            pass
    with pytest.raises(ValueError):
        with tracer.span("failing"):
            raise ValueError("x")
    payload = tracer.to_dict()
    assert json.loads(json.dumps(payload)) == payload
    pipeline, failing = payload["spans"]
    assert pipeline["children"][0]["attributes"] == {"method": "kmeans"}
    assert failing["status"] == "error"


def test_save_and_load_json(tmp_path):
    tracer = Tracer()
    with tracer.span("root"):
        pass
    path = tmp_path / "trace.json"
    tracer.save_json(path)
    assert json.loads(path.read_text()) == tracer.to_dict()
