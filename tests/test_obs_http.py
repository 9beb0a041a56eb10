"""Live tests for the telemetry HTTP server on an ephemeral port."""

import http.client
import json
import socket
import time
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

from repro.obs.export import PROMETHEUS_CONTENT_TYPE
from repro.obs.http import (HttpReply, ServerHandle, TelemetryHTTPServer,
                            _TelemetryRequestHandler)
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder


def _get(url):
    """(status, content-type, body-text) for a GET, errors included."""
    try:
        with urlopen(url, timeout=5) as response:
            return (response.status, response.headers["Content-Type"],
                    response.read().decode("utf-8"))
    except HTTPError as error:
        return (error.code, error.headers["Content-Type"],
                error.read().decode("utf-8"))


def _post(url, body=b""):
    """(status, headers, body-text) for a POST, errors included."""
    request = Request(url, data=body, method="POST")
    try:
        with urlopen(request, timeout=5) as response:
            return (response.status, dict(response.headers),
                    response.read().decode("utf-8"))
    except HTTPError as error:
        return (error.code, dict(error.headers),
                error.read().decode("utf-8"))


@pytest.fixture()
def live_server():
    registry = MetricsRegistry()
    registry.counter("samples_scored").inc(17)
    recorder = FlightRecorder(capacity=8)
    recorder.record("alert", "watch", serial="D1")
    state = {"healthy": True}
    server = TelemetryHTTPServer(
        registry,
        health=lambda: {"status": "ok" if state["healthy"] else "degraded"},
        status=lambda: {"drives_tracked": 3},
        recorder=recorder,
    )
    with server:
        yield server, registry, recorder, state


def test_metrics_endpoint_serves_prometheus_text(live_server):
    server, _registry, _recorder, _state = live_server
    status, content_type, body = _get(server.url + "/metrics")
    assert status == 200
    assert content_type == PROMETHEUS_CONTENT_TYPE
    assert "repro_samples_scored_total 17" in body


def test_health_endpoint_is_200_then_503(live_server):
    server, _registry, _recorder, state = live_server
    status, _ctype, body = _get(server.url + "/health")
    assert status == 200
    assert json.loads(body) == {"status": "ok"}
    state["healthy"] = False
    status, _ctype, body = _get(server.url + "/health")
    assert status == 503
    assert json.loads(body) == {"status": "degraded"}


def test_status_endpoint_returns_caller_payload(live_server):
    server, _registry, _recorder, _state = live_server
    status, content_type, body = _get(server.url + "/status")
    assert status == 200
    assert content_type.startswith("application/json")
    assert json.loads(body) == {"drives_tracked": 3}


def test_recorder_endpoint_serves_ring_as_jsonl(live_server):
    server, _registry, recorder, _state = live_server
    status, content_type, body = _get(server.url + "/recorder")
    assert status == 200
    assert content_type.startswith("application/jsonl")
    events = [json.loads(line) for line in body.splitlines()]
    assert events == recorder.to_dicts()
    assert events[0]["context"] == {"serial": "D1"}


def test_recorder_endpoint_404_without_recorder():
    with TelemetryHTTPServer(MetricsRegistry()) as server:
        status, _ctype, body = _get(server.url + "/recorder")
    assert status == 404
    assert json.loads(body)["error"] == "no flight recorder"


def test_unknown_path_is_404(live_server):
    server, _registry, _recorder, _state = live_server
    status, _ctype, body = _get(server.url + "/nope")
    assert status == 404
    assert json.loads(body)["path"] == "/nope"


def test_every_request_increments_labeled_counter(live_server):
    server, registry, _recorder, _state = live_server
    for path in ("/metrics", "/metrics", "/health", "/nope"):
        _get(server.url + path)
    snapshot = registry.snapshot()
    assert snapshot['telemetry_requests{endpoint="metrics"}']["value"] >= 2
    assert snapshot['telemetry_requests{endpoint="health"}']["value"] >= 1
    assert snapshot['telemetry_requests{endpoint="other"}']["value"] >= 1


def test_defaults_without_callables():
    registry = MetricsRegistry()
    with TelemetryHTTPServer(registry) as server:
        assert server.port != 0
        assert server.url.startswith("http://127.0.0.1:")
        status, _ctype, body = _get(server.url + "/health")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}
        status, _ctype, body = _get(server.url + "/status")
        assert json.loads(body) == {}


def test_stop_releases_the_port():
    registry = MetricsRegistry()
    server = TelemetryHTTPServer(registry).start()
    host, port = server.host, server.port
    server.stop()
    rebound = TelemetryHTTPServer(registry, host=host, port=port)
    rebound.start()
    rebound.stop()


# -- server handle ----------------------------------------------------------

def test_handle_carries_the_bound_address(tmp_path):
    with TelemetryHTTPServer(MetricsRegistry()) as server:
        handle = server.handle
        assert isinstance(handle, ServerHandle)
        assert handle.host == server.host
        assert handle.port == server.port != 0
        assert handle.url == server.url == f"http://{handle.host}:{handle.port}"
        port_file = handle.write_port_file(tmp_path / "port.txt")
        assert port_file.read_text() == f"{handle.port}\n"
        assert int(port_file.read_text()) == handle.port


# -- POST routes ------------------------------------------------------------

@pytest.fixture()
def post_server():
    registry = MetricsRegistry()
    calls = []

    def echo(body, query):
        calls.append((body, query))
        return HttpReply.json(201, {"got": body.decode("utf-8"),
                                    "query": query},
                              headers=(("Retry-After", "2"),))

    def boom(body, query):
        raise RuntimeError("handler exploded")

    server = TelemetryHTTPServer(
        registry, post_routes={"/echo": echo, "/boom": boom})
    with server:
        yield server, registry, calls


def test_post_route_receives_body_and_query(post_server):
    server, _registry, calls = post_server
    status, headers, body = _post(server.url + "/echo?mode=fast&mode=slow",
                                  b"hello")
    assert status == 201
    assert headers["Retry-After"] == "2"  # extra headers pass through
    assert json.loads(body) == {"got": "hello",
                                "query": {"mode": "slow"}}  # last wins
    assert calls == [(b"hello", {"mode": "slow"})]


def test_unknown_post_path_is_404(post_server):
    server, _registry, _calls = post_server
    status, _headers, body = _post(server.url + "/nope", b"x")
    assert status == 404
    assert json.loads(body)["path"] == "/nope"


def test_post_handler_crash_is_500_not_a_dead_socket(post_server):
    server, _registry, _calls = post_server
    status, _headers, body = _post(server.url + "/boom", b"x")
    assert status == 500
    assert "RuntimeError" in json.loads(body)["error"]
    # The server survives the crash and keeps answering.
    assert _post(server.url + "/echo", b"alive")[0] == 201


def test_post_requests_count_under_their_own_label(post_server):
    server, registry, _calls = post_server
    _post(server.url + "/echo", b"x")
    _post(server.url + "/missing", b"x")
    snapshot = registry.snapshot()
    assert snapshot['telemetry_requests{endpoint="echo"}']["value"] == 1
    assert snapshot['telemetry_requests{endpoint="other"}']["value"] == 1


# -- reply transport ---------------------------------------------------------

class _CountingSocket:
    """Server-side socket proxy recording every ``send``/``sendall``."""

    def __init__(self, sock, writes):
        self._sock = sock
        self._writes = writes

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def makefile(self, *args, **kwargs):
        # socket.makefile wraps ``self``, so the file's writes come back
        # through the counting send below.
        return socket.socket.makefile(self, *args, **kwargs)

    def send(self, data, *flags):
        self._writes.append(bytes(data))
        return self._sock.send(data, *flags)

    def sendall(self, data, *flags):
        self._writes.append(bytes(data))
        return self._sock.sendall(data, *flags)


def test_each_reply_is_one_socket_write(post_server, live_server,
                                        monkeypatch):
    """Status line, headers and body leave in one write: a separate
    body write would wait out the client's delayed ACK under Nagle."""
    writes = []
    setup = _TelemetryRequestHandler.setup

    def counting_setup(handler):
        handler.request = _CountingSocket(handler.request, writes)
        setup(handler)

    monkeypatch.setattr(_TelemetryRequestHandler, "setup", counting_setup)
    for server, method, path, status in (
            (post_server[0], "POST", "/echo", 201),
            (post_server[0], "POST", "/nope", 404),
            (live_server[0], "GET", "/metrics", 200),
            (live_server[0], "GET", "/health", 200)):
        connection = http.client.HTTPConnection(server.host, server.port,
                                                timeout=5)
        for _ in range(3):  # keep-alive: one write per reply, every time
            before = len(writes)
            connection.request(method, path, body=b"x" if method == "POST"
                               else None)
            reply = connection.getresponse()
            body = reply.read()
            assert reply.status == status, (method, path)
            assert len(writes) == before + 1, (method, path)
            assert writes[-1].startswith(b"HTTP/1.1 ")
            assert writes[-1].endswith(body)
        connection.close()


def test_keep_alive_posts_do_not_stall(post_server):
    """50 keep-alive POSTs take milliseconds, not 50 delayed-ACK waits
    (~40 ms each when a reply went out as headers, then body)."""
    server, _registry, _calls = post_server
    connection = http.client.HTTPConnection(server.host, server.port,
                                            timeout=5)
    connection.request("POST", "/echo", body=b"warm-up")
    connection.getresponse().read()
    started = time.perf_counter()
    for index in range(50):
        connection.request("POST", "/echo", body=str(index).encode())
        reply = connection.getresponse()
        assert reply.status == 201
        reply.read()
    elapsed = time.perf_counter() - started
    connection.close()
    assert elapsed < 1.0, f"50 keep-alive POSTs took {elapsed:.2f} s"
