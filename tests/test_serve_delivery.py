"""Tests for guaranteed alert delivery: retries, breaker, dead letter.

The delivery contract pinned here: every alert submitted to a
:class:`~repro.serve.sinks.DeliveryPipeline` reaches exactly one
outcome — delivered (after bounded retries) or parked in the dead
letter — and never blocks or kills the scoring path.  The circuit
breaker fast-fails while a destination is hard-down, a webhook's
``Retry-After`` hint overrides exponential backoff, the dead-letter
file holds byte-identical verdict lines, and
:func:`~repro.serve.sinks.reprocess_dead_letter` drains it without
changing a byte of the re-emitted alerts.
"""

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
    DeadLetterWriter,
    DeliveryPipeline,
    DeliveryPolicy,
    JsonlAlertSink,
    WebhookAlertSink,
    parse_sink_spec,
    read_dead_letter,
    reprocess_dead_letter,
)

from tests.test_serve_sinks import _verdict


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
    verdicts = [_verdict(serial=f"Z{i}") for i in range(5)]
    for verdict in verdicts:
        assert pipeline.offer(verdict) is True
    pipeline.close()
    assert pipeline.delivered == 5
    assert pipeline.failed == 0
    assert path.read_text().splitlines() == [v.to_json_line()
                                             for v in verdicts]


def test_transient_failures_are_retried(tmp_path):
    calls = []

    def flaky(verdict):
        calls.append(verdict.serial)
        if len(calls) < 3:  # first two attempts fail
            raise RuntimeError("pager flapping")

    observer = TelemetryObserver()
    pipeline = DeliveryPipeline(CallbackAlertSink(flaky),
                                policy=_fast_policy(), observer=observer)
    pipeline.offer(_verdict())
    pipeline.close()
    assert calls == ["ZA1"] * 3
    assert pipeline.delivered == 1
    assert pipeline.failed == 0
    assert observer.metrics.counter("sink_retries").value == 2
    assert observer.metrics.counter("alert_sink_emits").value == 1


def test_exhausted_attempts_go_to_the_dead_letter(tmp_path):
    observer = TelemetryObserver()
    recorder = FlightRecorder()
    dead_letter = DeadLetterWriter(tmp_path / "dead.jsonl")
    sink = BlackholeSink()
    pipeline = DeliveryPipeline(
        sink, policy=_fast_policy(max_attempts=2, breaker_threshold=99),
        dead_letter=dead_letter, observer=observer, recorder=recorder)
    verdicts = [_verdict(serial="ZX1"), _verdict(serial="ZX2")]
    for verdict in verdicts:
        pipeline.offer(verdict)
    pipeline.close()
    assert pipeline.delivered == 0
    assert pipeline.failed == 2
    assert sink.attempts == 4  # 2 alerts x 2 attempts
    assert observer.metrics.counter("alert_sink_errors").value == 2
    assert observer.metrics.counter("dead_letter_alerts").value == 2
    assert dead_letter.written == 2
    # Byte-identical verdict lines: the dead letter IS the alert stream.
    assert (tmp_path / "dead.jsonl").read_text().splitlines() == [
        v.to_json_line() for v in verdicts]
    errors = recorder.events_of("sink-error")
    assert errors and errors[0].context["sink"] == "blackhole"


def test_circuit_breaker_fast_fails_while_open(tmp_path):
    dead_letter = DeadLetterWriter(tmp_path / "dead.jsonl")
    sink = BlackholeSink()
    pipeline = DeliveryPipeline(
        sink, policy=_fast_policy(max_attempts=2, breaker_threshold=2,
                                  breaker_cooldown_s=60.0),
        dead_letter=dead_letter)
    for serial in ("ZB1", "ZB2", "ZB3", "ZB4"):
        pipeline.offer(_verdict(serial=serial))
    pipeline.close()
    # Two final failures trip the breaker; the last two alerts never
    # touch the sink but still land in the dead letter.
    assert sink.attempts == 4
    assert pipeline.failed == 4
    assert dead_letter.written == 4
    assert len(read_dead_letter(dead_letter.path)) == 4


def test_full_queue_diverts_to_dead_letter_without_blocking(tmp_path):
    release = threading.Event()

    def slow(_verdict):
        release.wait(timeout=10.0)

    dead_letter = DeadLetterWriter(tmp_path / "dead.jsonl")
    pipeline = DeliveryPipeline(
        CallbackAlertSink(slow), policy=_fast_policy(queue_capacity=1),
        dead_letter=dead_letter)
    pipeline.offer(_verdict(serial="ZQ0"))  # worker picks this up
    time.sleep(0.05)
    assert pipeline.offer(_verdict(serial="ZQ1")) is True  # fills the queue
    overflow = _verdict(serial="ZQ2")
    started = time.monotonic()
    assert pipeline.offer(overflow) is False  # diverted, not blocked
    assert time.monotonic() - started < 1.0
    release.set()
    pipeline.close()
    assert pipeline.delivered == 2
    assert pipeline.failed == 1
    assert read_dead_letter(dead_letter.path)[0].serial == "ZQ2"


def test_submit_after_close_is_sink_error(tmp_path):
    pipeline = DeliveryPipeline(JsonlAlertSink(tmp_path / "out.jsonl"))
    pipeline.close()
    pipeline.close()  # idempotent
    with pytest.raises(SinkError, match="closed"):
        pipeline.offer(_verdict())


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
        WebhookAlertSink(url).emit(_verdict())
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
    pipeline.offer(_verdict())
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
    writer = DeadLetterWriter(tmp_path / "nested" / "dead.jsonl")
    verdicts = [_verdict(serial="ZD1"), _verdict(serial="ZD2")]
    for verdict in verdicts:
        writer.write(verdict)
    writer.close()
    assert writer.written == 2
    assert writer.path.read_text().splitlines() == [v.to_json_line()
                                                    for v in verdicts]


def test_read_dead_letter_round_trips(tmp_path):
    writer = DeadLetterWriter(tmp_path / "dead.jsonl")
    original = [_verdict(serial="ZR1"), _verdict(serial="ZR2", level="FATAL")]
    for verdict in original:
        writer.write(verdict)
    writer.close()
    restored = read_dead_letter(writer.path)
    assert [v.to_json_line() for v in restored] == [v.to_json_line()
                                                    for v in original]


def test_read_dead_letter_rejects_damage(tmp_path):
    path = tmp_path / "dead.jsonl"
    path.write_text(_verdict().to_json_line() + "\n{torn...\n")
    with pytest.raises(SinkError, match="malformed dead-letter line"):
        read_dead_letter(path)
    with pytest.raises(SinkError, match="cannot read"):
        read_dead_letter(tmp_path / "missing.jsonl")


def test_reprocess_dead_letter_keeps_exact_remainder(tmp_path):
    writer = DeadLetterWriter(tmp_path / "dead.jsonl")
    verdicts = [_verdict(serial=f"ZP{i}") for i in range(4)]
    for verdict in verdicts:
        writer.write(verdict)
    writer.close()
    delivered_serials = []

    def selective(verdict):
        if verdict.serial == "ZP2":
            raise RuntimeError("still down")
        delivered_serials.append(verdict.serial)

    delivered, remaining = reprocess_dead_letter(
        writer.path, CallbackAlertSink(selective))
    assert (delivered, remaining) == (3, 1)
    assert delivered_serials == ["ZP0", "ZP1", "ZP3"]
    # The file now holds exactly the undelivered alert, byte-identical.
    assert writer.path.read_text() == verdicts[2].to_json_line() + "\n"
    # A second pass against a healthy sink empties it.
    seen = []
    assert reprocess_dead_letter(
        writer.path, CallbackAlertSink(seen.append)) == (1, 0)
    assert writer.path.read_text() == ""
    assert seen[0].to_json_line() == verdicts[2].to_json_line()


# -- spec grammar -----------------------------------------------------------

def test_spec_jsonl_fsync_option(tmp_path):
    sink = parse_sink_spec(f"jsonl:{tmp_path / 'a.jsonl'}|fsync")
    assert isinstance(sink, JsonlAlertSink)
    sink.emit(_verdict())
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
