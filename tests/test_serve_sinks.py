"""Tests for alert sinks: delivery shapes, failure typing, spec parsing.

The sink contract pinned here: every delivery failure surfaces as a
typed :class:`~repro.errors.SinkError` (never a bare ``OSError`` or
callback exception), every sink receives the canonical verdict line and
delivers it unchanged, and the CLI's ``--alert-sink`` spec grammar
round-trips into the right sink class.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from repro.errors import SinkError
from repro.serve.scorer import MonitorVerdict
from repro.serve.sinks import (
    AlertSink,
    CallbackAlertSink,
    JsonlAlertSink,
    WebhookAlertSink,
    parse_sink_spec,
)


def _line(serial="ZA1", hour=480, level="WATCH"):
    """One canonical verdict line, as the daemon hands it to sinks."""
    return MonitorVerdict(
        serial=serial, hour=hour, level=level, stage=0.42,
        likely_type="GRADUAL_WEAROUT", hours_remaining=120.0,
        stages={"GRADUAL_WEAROUT": 0.42}, remaining={"GRADUAL_WEAROUT": 120.0},
    ).to_json_line()


# -- jsonl ------------------------------------------------------------------

def test_jsonl_sink_appends_canonical_lines(tmp_path):
    path = tmp_path / "alerts" / "out.jsonl"
    sink = JsonlAlertSink(path)
    assert not path.exists()  # lazy: no file until the first alert
    first, second = _line(), _line(serial="ZB7", level="CRITICAL")
    sink.emit(first)
    sink.emit(second)
    sink.close()
    lines = path.read_text().splitlines()
    assert lines == [first, second]
    assert json.loads(lines[0])["serial"] == "ZA1"


def test_jsonl_sink_close_is_idempotent(tmp_path):
    sink = JsonlAlertSink(tmp_path / "out.jsonl")
    sink.emit(_line())
    sink.close()
    sink.close()
    sink.emit(_line())  # reopens after close (append mode)
    sink.close()
    assert len((tmp_path / "out.jsonl").read_text().splitlines()) == 2


def test_jsonl_sink_write_failure_is_sink_error(tmp_path):
    target = tmp_path / "blocked"
    target.mkdir()
    sink = JsonlAlertSink(target)  # a directory: open() must fail
    with pytest.raises(SinkError, match="cannot write"):
        sink.emit(_line())


def test_jsonl_sink_describe_names_the_path(tmp_path):
    path = tmp_path / "out.jsonl"
    assert JsonlAlertSink(path).describe() == f"jsonl:{path}"


# -- webhook ----------------------------------------------------------------

class _WebhookHandler(BaseHTTPRequestHandler):
    """Records POST bodies; status code is set per-server."""

    def do_POST(self):  # noqa: N802 — http.server's contract
        length = int(self.headers.get("Content-Length", "0"))
        self.server.bodies.append(self.rfile.read(length))
        self.send_response(self.server.reply_status)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, format, *args):
        pass


@pytest.fixture()
def webhook_server():
    server = HTTPServer(("127.0.0.1", 0), _WebhookHandler)
    server.bodies = []
    server.reply_status = 200
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_address[1]}/hook"
    server.shutdown()
    thread.join(timeout=5)
    server.server_close()


def test_webhook_sink_posts_the_verdict(webhook_server):
    server, url = webhook_server
    line = _line()
    WebhookAlertSink(url).emit(line)
    assert server.bodies == [(line + "\n").encode()]


def test_webhook_sink_non_2xx_is_sink_error(webhook_server):
    server, url = webhook_server
    server.reply_status = 500
    with pytest.raises(SinkError, match="answered 500"):
        WebhookAlertSink(url).emit(_line())


def test_webhook_sink_unreachable_is_sink_error():
    sink = WebhookAlertSink("http://127.0.0.1:1/hook", timeout_s=0.5)
    with pytest.raises(SinkError, match="unreachable"):
        sink.emit(_line())


def test_webhook_sink_rejects_non_http_urls():
    with pytest.raises(SinkError, match="http"):
        WebhookAlertSink("file:///tmp/x")


# -- callback ---------------------------------------------------------------

def test_callback_sink_hands_over_the_verdict():
    seen = []
    sink = CallbackAlertSink(seen.append)
    line = _line()
    sink.emit(line)
    assert seen == [line]
    assert sink.describe() == "callback:append"


def test_callback_exceptions_become_sink_errors():
    def explode(_line):
        raise RuntimeError("pager down")

    with pytest.raises(SinkError, match="RuntimeError: pager down"):
        CallbackAlertSink(explode).emit(_line())
    with pytest.raises(SinkError, match="callable"):
        CallbackAlertSink("not-a-function")


# -- base class and spec grammar --------------------------------------------

def test_base_sink_is_a_silent_null_device():
    sink = AlertSink()
    sink.emit(_line())
    sink.close()
    assert sink.describe() == "null"


def test_parse_sink_spec_round_trips(tmp_path):
    jsonl = parse_sink_spec(f"jsonl:{tmp_path}/a.jsonl")
    assert isinstance(jsonl, JsonlAlertSink)
    assert jsonl.path == tmp_path / "a.jsonl"
    webhook = parse_sink_spec("webhook:http://127.0.0.1:9/hook")
    assert isinstance(webhook, WebhookAlertSink)
    assert webhook.url == "http://127.0.0.1:9/hook"


@pytest.mark.parametrize("spec", ["jsonl", "jsonl:", "smoke:signals",
                                  "webhook:ftp://x"])
def test_parse_sink_spec_rejects_malformed(spec):
    with pytest.raises(SinkError):
        parse_sink_spec(spec)
