"""Tests for guaranteed alert delivery: retries, breaker, dead letter.

The delivery contract pinned here: every alert submitted to a
:class:`~repro.serve.sinks.DeliveryPipeline` reaches exactly one
outcome — delivered (after bounded retries) or parked in the dead
letter — and never blocks or kills the scoring path.  The circuit
breaker fast-fails while a destination is hard-down, a webhook's
``Retry-After`` hint overrides exponential backoff, the dead letter (an
fsynced :class:`~repro.serve.sinks.JsonlAlertSink`) holds the offered
lines byte for byte, and :func:`~repro.serve.sinks.reprocess_dead_letter`
drains it without changing a byte of the re-emitted alerts.
"""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from repro.errors import SinkError
from repro.faults.chaos_serve import BlackholeSink
from repro.obs.observer import TelemetryObserver
from repro.obs.recorder import FlightRecorder
from repro.serve.sinks import (
    CallbackAlertSink,
    DeliveryPipeline,
    DeliveryPolicy,
    JsonlAlertSink,
    WebhookAlertSink,
    parse_sink_spec,
    read_dead_letter,
    reprocess_dead_letter,
)

from tests.test_serve_sinks import _line


def _dead_letter(tmp_path):
    """The daemon's dead letter: an fsynced JSONL sink."""
    return JsonlAlertSink(tmp_path / "dead.jsonl", fsync=True)


def _fast_policy(**overrides):
    """A policy with no real sleeps, for single-digit-ms tests."""
    settings = {"max_attempts": 3, "backoff_s": 0.0, "backoff_cap_s": 0.0,
                "breaker_threshold": 3, "breaker_cooldown_s": 60.0,
                "queue_capacity": 16}
    settings.update(overrides)
    return DeliveryPolicy(**settings)


# -- policy validation ------------------------------------------------------

def test_policy_validation():
    with pytest.raises(SinkError, match="max_attempts"):
        DeliveryPolicy(max_attempts=0)
    with pytest.raises(SinkError, match="backoff"):
        DeliveryPolicy(backoff_s=-0.1)
    with pytest.raises(SinkError, match="breaker_threshold"):
        DeliveryPolicy(breaker_threshold=0)
    with pytest.raises(SinkError, match="queue_capacity"):
        DeliveryPolicy(queue_capacity=0)


# -- happy path and retries -------------------------------------------------

def test_pipeline_delivers_in_fifo_order(tmp_path):
    path = tmp_path / "alerts.jsonl"
    pipeline = DeliveryPipeline(JsonlAlertSink(path), policy=_fast_policy())
    lines = [_line(serial=f"Z{i}") for i in range(5)]
    for line in lines:
        assert pipeline.offer(line) is True
    pipeline.close()
    assert pipeline.delivered == 5
    assert pipeline.failed == 0
    assert path.read_text().splitlines() == lines


def test_transient_failures_are_retried(tmp_path):
    calls = []

    def flaky(line):
        calls.append(json.loads(line)["serial"])
        if len(calls) < 3:  # first two attempts fail
            raise RuntimeError("pager flapping")

    observer = TelemetryObserver()
    pipeline = DeliveryPipeline(CallbackAlertSink(flaky),
                                policy=_fast_policy(), observer=observer)
    pipeline.offer(_line())
    pipeline.close()
    assert calls == ["ZA1"] * 3
    assert pipeline.delivered == 1
    assert pipeline.failed == 0
    assert observer.metrics.counter("sink_retries").value == 2
    assert observer.metrics.counter("alert_sink_emits").value == 1


def test_exhausted_attempts_go_to_the_dead_letter(tmp_path):
    observer = TelemetryObserver()
    recorder = FlightRecorder()
    dead_letter = _dead_letter(tmp_path)
    sink = BlackholeSink()
    pipeline = DeliveryPipeline(
        sink, policy=_fast_policy(max_attempts=2, breaker_threshold=99),
        dead_letter=dead_letter, observer=observer, recorder=recorder)
    lines = [_line(serial="ZX1"), _line(serial="ZX2")]
    for line in lines:
        pipeline.offer(line)
    pipeline.close()
    dead_letter.close()
    assert pipeline.delivered == 0
    assert pipeline.failed == 2
    assert sink.attempts == 4  # 2 alerts x 2 attempts
    assert observer.metrics.counter("alert_sink_errors").value == 2
    assert observer.metrics.counter("dead_letter_alerts").value == 2
    # Byte-identical verdict lines: the dead letter IS the alert stream.
    assert dead_letter.path.read_text().splitlines() == lines
    errors = [e for e in recorder.tail() if e.kind == "sink-error"]
    assert errors and errors[0].context["sink"] == "blackhole"


def test_circuit_breaker_fast_fails_while_open(tmp_path):
    observer = TelemetryObserver()
    dead_letter = _dead_letter(tmp_path)
    sink = BlackholeSink()
    pipeline = DeliveryPipeline(
        sink, policy=_fast_policy(max_attempts=2, breaker_threshold=2,
                                  breaker_cooldown_s=60.0),
        dead_letter=dead_letter, observer=observer)
    for serial in ("ZB1", "ZB2", "ZB3", "ZB4"):
        pipeline.offer(_line(serial=serial))
    pipeline.close()
    dead_letter.close()
    # Two final failures trip the breaker; the last two alerts never
    # touch the sink but still land in the dead letter.
    assert sink.attempts == 4
    assert pipeline.failed == 4
    assert observer.metrics.counter("dead_letter_alerts").value == 4
    assert len(dead_letter.path.read_text().splitlines()) == 4
    assert len(read_dead_letter(dead_letter.path)) == 4


def test_full_queue_diverts_to_dead_letter_without_blocking(tmp_path):
    release = threading.Event()

    def slow(_line):
        release.wait(timeout=10.0)

    dead_letter = _dead_letter(tmp_path)
    pipeline = DeliveryPipeline(
        CallbackAlertSink(slow), policy=_fast_policy(queue_capacity=1),
        dead_letter=dead_letter)
    pipeline.offer(_line(serial="ZQ0"))  # worker picks this up
    time.sleep(0.05)
    assert pipeline.offer(_line(serial="ZQ1")) is True  # fills the queue
    overflow = _line(serial="ZQ2")
    started = time.monotonic()
    assert pipeline.offer(overflow) is False  # diverted, not blocked
    assert time.monotonic() - started < 1.0
    release.set()
    pipeline.close()
    assert pipeline.delivered == 2
    assert pipeline.failed == 1
    dead_letter.close()
    assert read_dead_letter(dead_letter.path) == [overflow]


def test_submit_after_close_is_sink_error(tmp_path):
    pipeline = DeliveryPipeline(JsonlAlertSink(tmp_path / "out.jsonl"))
    pipeline.close()
    pipeline.close()  # idempotent
    with pytest.raises(SinkError, match="closed"):
        pipeline.offer(_line())


# -- Retry-After ------------------------------------------------------------

class _RetryAfterHandler(BaseHTTPRequestHandler):
    """Answers every POST with a fixed status + optional Retry-After."""

    def do_POST(self):  # noqa: N802 — http.server's contract
        length = int(self.headers.get("Content-Length", "0"))
        self.server.bodies.append(self.rfile.read(length))
        self.send_response(self.server.reply_status)
        if self.server.retry_after is not None:
            self.send_header("Retry-After", self.server.retry_after)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, format, *args):
        pass


@pytest.fixture()
def throttling_server():
    server = HTTPServer(("127.0.0.1", 0), _RetryAfterHandler)
    server.bodies = []
    server.reply_status = 429
    server.retry_after = "3"
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_address[1]}/hook"
    server.shutdown()
    thread.join(timeout=5)
    server.server_close()


@pytest.mark.parametrize("status,header,expected", [
    (429, "3", 3.0),
    (503, "0.5", 0.5),
    (429, "not-a-number", None),  # HTTP-date form is ignored
    (429, "-2", None),            # negative hints are nonsense
    (500, "3", None),             # only throttle statuses carry the hint
])
def test_webhook_surfaces_retry_after_hint(throttling_server, status,
                                           header, expected):
    server, url = throttling_server
    server.reply_status = status
    server.retry_after = header
    with pytest.raises(SinkError) as excinfo:
        WebhookAlertSink(url).emit(_line())
    assert excinfo.value.retry_after_s == expected


def test_pipeline_prefers_server_hint_over_backoff(throttling_server):
    """A tiny Retry-After beats a large exponential backoff: with
    backoff_s=30 the retry could only happen within the test timeout
    because the server's 0-second hint overrode it."""
    server, url = throttling_server
    server.reply_status = 429
    server.retry_after = "0"
    pipeline = DeliveryPipeline(
        WebhookAlertSink(url, timeout_s=5.0),
        policy=DeliveryPolicy(max_attempts=3, backoff_s=30.0,
                              backoff_cap_s=30.0, breaker_threshold=9,
                              breaker_cooldown_s=60.0, queue_capacity=4))
    started = time.monotonic()
    pipeline.offer(_line())
    pipeline.close()
    assert time.monotonic() - started < 10.0
    assert pipeline.failed == 1
    assert len(server.bodies) == 3  # all attempts made, immediately


def test_webhook_timeout_is_configurable():
    assert WebhookAlertSink("http://x.invalid/").timeout_s == 5.0
    assert WebhookAlertSink("http://x.invalid/",
                            timeout_s=0.25).timeout_s == 0.25


# -- dead-letter file handling ----------------------------------------------

def test_dead_letter_writer_appends_and_counts(tmp_path):
    """The dead letter is an fsynced JSONL sink that pipelines share:
    it creates its directory, appends each parked line as offered, and
    every write is counted under ``dead_letter_alerts``."""
    observer = TelemetryObserver()
    dead_letter = JsonlAlertSink(tmp_path / "nested" / "dead.jsonl",
                                 fsync=True)
    pipelines = [
        DeliveryPipeline(BlackholeSink(), policy=_fast_policy(max_attempts=1),
                         dead_letter=dead_letter, observer=observer)
        for _ in range(2)]
    lines = [_line(serial="ZD1"), _line(serial="ZD2")]
    for line in lines:
        for pipeline in pipelines:
            pipeline.offer(line)
    for pipeline in pipelines:
        pipeline.close()
    dead_letter.close()
    assert observer.metrics.counter("dead_letter_alerts").value == 4
    parked = dead_letter.path.read_text().splitlines()
    assert sorted(parked) == sorted(lines * 2)


def test_read_dead_letter_round_trips(tmp_path):
    dead_letter = _dead_letter(tmp_path)
    original = [_line(serial="ZR1"), _line(serial="ZR2", level="FATAL")]
    for line in original:
        dead_letter.emit(line)
    dead_letter.close()
    assert read_dead_letter(dead_letter.path) == original


def test_read_dead_letter_rejects_damage(tmp_path):
    path = tmp_path / "dead.jsonl"
    path.write_text(_line() + "\n{torn...\n")
    with pytest.raises(SinkError, match="dead.jsonl:2: malformed dead-letter"):
        read_dead_letter(path)
    # Valid JSON that is not a verdict object is refused just the same.
    path.write_text(_line() + "\n\n" + '{"serial": "ZT1"}\n')
    with pytest.raises(SinkError, match=r"dead.jsonl:3: malformed dead-letter"
                                        r" line \(no hour, "):
        read_dead_letter(path)
    path.write_text("[1, 2]\n")
    with pytest.raises(SinkError, match="dead.jsonl:1: malformed dead-letter"):
        read_dead_letter(path)
    with pytest.raises(SinkError, match="cannot read"):
        read_dead_letter(tmp_path / "missing.jsonl")


def test_reprocess_dead_letter_keeps_exact_remainder(tmp_path):
    dead_letter = _dead_letter(tmp_path)
    lines = [_line(serial=f"ZP{i}") for i in range(4)]
    for line in lines:
        dead_letter.emit(line)
    dead_letter.close()
    delivered_lines = []

    def selective(line):
        if line == lines[2]:
            raise RuntimeError("still down")
        delivered_lines.append(line)

    dead_letter.path.chmod(0o640)
    delivered, remaining = reprocess_dead_letter(
        dead_letter.path, CallbackAlertSink(selective))
    assert (delivered, remaining) == (3, 1)
    # The atomic rewrite keeps the operator's permission bits.
    assert dead_letter.path.stat().st_mode & 0o777 == 0o640
    assert delivered_lines == [lines[0], lines[1], lines[3]]
    # The file now holds exactly the undelivered alert, byte-identical.
    assert dead_letter.path.read_text() == lines[2] + "\n"
    # A second pass against a healthy sink empties it.
    seen = []
    assert reprocess_dead_letter(
        dead_letter.path, CallbackAlertSink(seen.append)) == (1, 0)
    assert dead_letter.path.read_text() == ""
    assert seen == [lines[2]]


# -- spec grammar -----------------------------------------------------------

def test_spec_jsonl_fsync_option(tmp_path):
    sink = parse_sink_spec(f"jsonl:{tmp_path / 'a.jsonl'}|fsync")
    assert isinstance(sink, JsonlAlertSink)
    sink.emit(_line())
    sink.close()
    assert len(sink.path.read_text().splitlines()) == 1


def test_spec_webhook_timeout_option():
    sink = parse_sink_spec("webhook:http://example.invalid/hook|timeout=2.5")
    assert isinstance(sink, WebhookAlertSink)
    assert sink.timeout_s == 2.5


@pytest.mark.parametrize("spec,match", [
    ("jsonl:/tmp/x|gzip", "unknown jsonl sink option"),
    ("webhook:http://h/|retries=3", "unknown webhook sink option"),
    ("webhook:http://h/|timeout=soon", "bad webhook timeout"),
    ("webhook:http://h/|timeout=0", "must be positive"),
    ("jsonl:|fsync", "empty target"),
])
def test_spec_option_errors(spec, match):
    with pytest.raises(SinkError, match=match):
        parse_sink_spec(spec)
