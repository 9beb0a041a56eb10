"""Tests for the flight recorder: bounded ring, tail, dumps, crash guard."""

import itertools
import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.recorder import DEFAULT_CAPACITY, FlightRecorder


def _recorder(capacity=4):
    ticks = itertools.count(100.0)
    return FlightRecorder(capacity=capacity, clock=lambda: next(ticks))


def test_record_returns_event_with_monotone_seq():
    recorder = _recorder()
    first = recorder.record("alert", "watch", serial="D1")
    second = recorder.record("alert", "critical", serial="D2")
    assert (first.seq, second.seq) == (0, 1)
    assert first.wall_time == 100.0
    assert first.context == {"serial": "D1"}
    assert len(recorder) == 2


def test_ring_evicts_oldest_and_counts_drops():
    recorder = _recorder(capacity=3)
    for i in range(5):
        recorder.record("alert", f"event-{i}")
    assert len(recorder) == 3
    assert recorder.total_recorded == 5
    assert recorder.dropped == 2
    assert [event.message for event in recorder.tail()] == [
        "event-2", "event-3", "event-4"]


def test_tail_returns_most_recent_oldest_first():
    recorder = _recorder(capacity=8)
    for i in range(6):
        recorder.record("lifecycle", f"e{i}")
    assert [event.message for event in recorder.tail(2)] == ["e4", "e5"]
    assert recorder.tail(0) == []
    assert len(recorder.tail(99)) == 6
    with pytest.raises(ObservabilityError, match="tail length"):
        recorder.tail(-1)


def test_dump_jsonl_round_trips(tmp_path):
    recorder = _recorder()
    recorder.record("alert", "watch", serial="D7", stage=-0.5)
    path = recorder.dump_jsonl(tmp_path / "ring.jsonl")
    parsed = [json.loads(line) for line in path.read_text().splitlines()]
    assert parsed == recorder.to_dicts()
    assert parsed[0]["context"] == {"serial": "D7", "stage": -0.5}
    assert not (tmp_path / "ring.jsonl.tmp").exists()


def test_dump_jsonl_unwritable_raises(tmp_path):
    with pytest.raises(ObservabilityError, match="cannot dump"):
        _recorder().dump_jsonl(tmp_path / "absent" / "ring.jsonl")


def test_guard_dumps_on_crash_with_final_crash_event(tmp_path):
    recorder = _recorder(capacity=16)
    recorder.record("alert", "before the crash")
    path = tmp_path / "crash.jsonl"
    with pytest.raises(ValueError, match="boom"):
        with recorder.guard(path):
            raise ValueError("boom")
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert events[0]["message"] == "before the crash"
    assert events[-1]["kind"] == "crash"
    assert "ValueError: boom" in events[-1]["message"]


def test_guard_clean_exit_writes_nothing(tmp_path):
    recorder = _recorder()
    path = tmp_path / "crash.jsonl"
    with recorder.guard(path):
        recorder.record("lifecycle", "fine")
    assert not path.exists()


def test_capacity_validation_and_default():
    with pytest.raises(ObservabilityError, match="capacity"):
        FlightRecorder(capacity=0)
    assert FlightRecorder().capacity == DEFAULT_CAPACITY
