"""Zero-dependency HTTP surface for live telemetry.

A long-running scorer must expose its own health, not just print a
report at exit.  :class:`TelemetryHTTPServer` wraps the stdlib
``ThreadingHTTPServer`` around a :class:`~repro.obs.metrics.MetricsRegistry`
and serves the conventional operator endpoints:

``/metrics``
    Prometheus text exposition (:func:`~repro.obs.export.render_prometheus`);
    point a scrape job here.
``/health``
    Liveness JSON from the caller's ``health`` callable.  Responds 200
    when the payload's ``status`` is ``"ok"``, 503 otherwise — a load
    balancer needs only the code.
``/status``
    Free-form JSON from the caller's ``status`` callable (fleet gauges,
    flight-recorder tail, ...).
``/recorder``
    The attached :class:`~repro.obs.recorder.FlightRecorder` ring as
    JSONL (404 when no recorder is attached).

Callers with write traffic (the serving daemon's ``/ingest``) register
POST handlers through ``post_routes`` — each maps a path to a callable
from ``(body, query)`` to an :class:`HttpReply`, so the daemon reuses
this one server for both telemetry and ingestion.

Every request increments the labeled ``telemetry_requests`` counter in
the served registry, so scrape traffic is itself observable.  The
server binds ``port=0`` by default — an ephemeral port, read back from
the :class:`ServerHandle` at :attr:`TelemetryHTTPServer.handle` —
which keeps tests and multi-instance hosts collision-free.  Requests
are served from daemon threads; the scoring thread never blocks on a
scrape.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Mapping
from urllib.parse import parse_qsl

from repro.errors import ObservabilityError
from repro.ioutil import atomic_write_text
from repro.obs.export import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder

#: Endpoint label values for the ``telemetry_requests`` counter; paths
#: outside this set count under ``other`` (bounded label cardinality).
_KNOWN_ENDPOINTS = ("/metrics", "/health", "/status", "/recorder")


@dataclass(frozen=True, slots=True)
class ServerHandle:
    """Where a running HTTP server is actually bound.

    The single documented place a caller reads the live address from:
    ``port=0`` requests an ephemeral port, and the handle carries the
    kernel's pick.  Both the daemon and ``repro-serve watch`` publish
    their address through :meth:`write_port_file` instead of formatting
    port files by hand, so every port file in the system has the same
    one-line ``port\\n`` format.
    """

    host: str
    port: int

    @property
    def url(self) -> str:
        """Base URL of the bound server (no trailing slash)."""
        return f"http://{self.host}:{self.port}"

    def write_port_file(self, path: str | Path) -> Path:
        """Write the bound port (one line, newline-terminated) to ``path``.

        Returns the path written.  Orchestration scripts poll this file
        to learn the ephemeral port of a service they just launched —
        the write is atomic (temp file + rename), so a poller can never
        observe a half-written port.
        """
        return atomic_write_text(Path(path), f"{self.port}\n", fsync=False)


@dataclass(frozen=True, slots=True)
class HttpReply:
    """What a POST route handler returns: status, body, headers.

    ``headers`` carries extras beyond ``Content-Type`` /
    ``Content-Length`` (the server always sets those) — the daemon uses
    it for ``Retry-After`` on backpressure replies.
    """

    status: int
    body: bytes
    content_type: str = "application/json; charset=utf-8"
    headers: tuple[tuple[str, str], ...] = field(default=())

    @classmethod
    def json(cls, status: int, payload: dict[str, Any],
             headers: tuple[tuple[str, str], ...] = ()) -> "HttpReply":
        """Build a JSON reply (sorted keys, newline-terminated)."""
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        return cls(status=status, body=body, headers=headers)


#: A POST route handler: ``(body, query) -> HttpReply``.  ``query`` is
#: the parsed query string (last value wins for repeated keys).
PostHandler = Callable[[bytes, dict[str, str]], HttpReply]


def _default_health() -> dict[str, Any]:
    """Fallback liveness payload when the caller supplies none."""
    return {"status": "ok"}


class _TelemetryRequestHandler(BaseHTTPRequestHandler):
    """Routes GETs/POSTs to the telemetry endpoints; logs via repro.obs.

    Replies are buffered (``wbufsize = -1``) and flushed once per request
    by ``handle_one_request``, so status line, headers and body leave in
    one write.  Written separately, the small body segment waits for the
    client's delayed ACK under Nagle's algorithm — ~40 ms per keep-alive
    request.  ``TCP_NODELAY`` keeps a large reply's tail from stalling
    the same way.
    """

    server_version = "repro-telemetry/1"
    protocol_version = "HTTP/1.1"
    wbufsize = -1
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 — http.server's contract
        server: "_BoundServer" = self.server  # type: ignore[assignment]
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        endpoint = path if path in _KNOWN_ENDPOINTS else "other"
        server.registry.counter(
            "telemetry_requests",
            labels={"endpoint": endpoint.lstrip("/")},
        ).inc()
        if path == "/metrics":
            body = render_prometheus(server.registry).encode("utf-8")
            self._reply(200, PROMETHEUS_CONTENT_TYPE, body)
        elif path == "/health":
            payload = server.health()
            code = 200 if payload.get("status") == "ok" else 503
            self._reply_json(code, payload)
        elif path == "/status":
            self._reply_json(200, server.status())
        elif path == "/recorder":
            if server.recorder is None:
                self._reply_json(404, {"error": "no flight recorder"})
            else:
                lines = [json.dumps(event, sort_keys=True)
                         for event in server.recorder.to_dicts()]
                body = ("\n".join(lines) + ("\n" if lines else "")
                        ).encode("utf-8")
                self._reply(200, "application/jsonl; charset=utf-8", body)
        else:
            self._reply_json(404, {"error": "not found", "path": path})

    def do_POST(self) -> None:  # noqa: N802 — http.server's contract
        server: "_BoundServer" = self.server  # type: ignore[assignment]
        path, _, raw_query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        handler = server.post_routes.get(path)
        endpoint = path if handler is not None else "other"
        server.registry.counter(
            "telemetry_requests",
            labels={"endpoint": endpoint.lstrip("/") or "other"},
        ).inc()
        # Read the body even for a 404, or its bytes would prefix the
        # next request line on a keep-alive connection.
        length = int(self.headers.get("Content-Length", "0") or "0")
        body = self.rfile.read(length) if length > 0 else b""
        if handler is None:
            self._reply_json(404, {"error": "not found", "path": path})
            return
        query = dict(parse_qsl(raw_query))
        try:
            reply = handler(body, query)
        except Exception as error:
            # Route-handler crashes must not kill the connection thread
            # silently; reply 500 and leave the trace in the log.
            server.logger.error("POST %s handler failed: %s", path, error)
            self._reply_json(500, {"error": f"{type(error).__name__}: "
                                            f"{error}"})
            return
        self._reply(reply.status, reply.content_type, reply.body,
                    extra=reply.headers)

    def _reply(self, code: int, content_type: str, body: bytes,
               extra: tuple[tuple[str, str], ...] = ()) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _reply_json(self, code: int, payload: dict[str, Any]) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._reply(code, "application/json; charset=utf-8", body)

    def log_message(self, format: str, *args: Any) -> None:
        """Route access logs through repro.obs.logging, not stderr."""
        self.server.logger.debug(  # type: ignore[attr-defined]
            "%s %s", self.address_string(), format % args)


class _BoundServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the telemetry providers."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int],
                 registry: MetricsRegistry,
                 health: Callable[[], dict[str, Any]],
                 status: Callable[[], dict[str, Any]],
                 recorder: FlightRecorder | None,
                 post_routes: Mapping[str, PostHandler]) -> None:
        self.registry = registry
        self.health = health
        self.status = status
        self.recorder = recorder
        self.post_routes = dict(post_routes)
        self.logger = get_logger("obs.http")
        super().__init__(address, _TelemetryRequestHandler)


class TelemetryHTTPServer:
    """The live telemetry plane's HTTP front: start, scrape, stop.

    Parameters
    ----------
    registry:
        Metrics served at ``/metrics`` (and incremented per request).
    health:
        Zero-argument callable returning the ``/health`` JSON payload;
        a ``status`` key other than ``"ok"`` turns the response 503.
    status:
        Zero-argument callable returning the ``/status`` JSON payload.
    recorder:
        Optional flight recorder served as JSONL at ``/recorder``.
    post_routes:
        Optional mapping of path to POST handler (``(body, query) ->
        HttpReply``); unknown POST paths answer 404.  Registered paths
        get their own ``telemetry_requests`` endpoint label.
    host / port:
        Bind address; ``port=0`` (default) picks an ephemeral port,
        readable from :attr:`handle` after construction.
    """

    def __init__(self, registry: MetricsRegistry, *,
                 health: Callable[[], dict[str, Any]] | None = None,
                 status: Callable[[], dict[str, Any]] | None = None,
                 recorder: FlightRecorder | None = None,
                 post_routes: Mapping[str, PostHandler] | None = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        try:
            self._server = _BoundServer(
                (host, port), registry,
                health if health is not None else _default_health,
                status if status is not None else dict,
                recorder,
                post_routes if post_routes is not None else {},
            )
        except OSError as error:
            raise ObservabilityError(
                f"cannot bind telemetry server to {host}:{port}: {error}"
            ) from error
        self._thread: threading.Thread | None = None

    @property
    def handle(self) -> ServerHandle:
        """The bound address as a :class:`ServerHandle`."""
        return ServerHandle(host=self._server.server_address[0],
                            port=self._server.server_address[1])

    @property
    def host(self) -> str:
        """Bound host address."""
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        """Bound port (the ephemeral pick when constructed with 0)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the serving endpoints."""
        return self.handle.url

    def start(self) -> "TelemetryHTTPServer":
        """Serve in a daemon thread (idempotent); returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="repro-telemetry-http", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and release the socket."""
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join()
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "TelemetryHTTPServer":
        return self.start()

    def __exit__(self, exc_type, exc, traceback) -> bool:
        self.stop()
        return False
