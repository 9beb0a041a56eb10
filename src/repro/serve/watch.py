"""Watch mode: streaming scoring with a live telemetry plane attached.

``score`` and ``replay`` are batch verbs — they run, print, exit.  A
scorer that *stays up* needs to answer for itself while running, and
:class:`WatchService` is that wrapper: one
:class:`~repro.serve.scorer.StreamScorer`, one
:class:`~repro.obs.recorder.FlightRecorder` and one
:class:`~repro.obs.http.TelemetryHTTPServer` composed so that

* every scored batch lands in the observer's metrics registry (scraped
  live at ``/metrics`` in Prometheus text format);
* ``/health`` reports the serving bundle's content hash and schema
  version, so an operator can tell *which* model answered;
* ``/status`` reports fleet gauges (drives tracked, samples scored,
  alert rate) plus the flight recorder's recent tail;
* every WATCH/CRITICAL verdict is recorded in the flight recorder, so
  "what happened just now?" survives even when no scraper was watching.

Telemetry never feeds back into scoring: verdicts from a watched stream
are byte-identical to an offline replay of the same samples.  The
``repro-serve watch`` subcommand (:mod:`repro.serve.cli`) drives this
service from the shell.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.errors import ServeError
from repro.obs.http import TelemetryHTTPServer
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import PipelineObserver, TelemetryObserver
from repro.obs.recorder import FlightRecorder
from repro.serve.bundle import BUNDLE_SCHEMA_VERSION, ModelBundle, content_hash
from repro.serve.scorer import StreamScorer, VerdictBlock

#: Recorder events shown inline in the ``/status`` payload; the full
#: ring stays available at ``/recorder``.
DEFAULT_STATUS_TAIL = 20


class WatchService:
    """A streaming scorer with its telemetry surfaces wired together.

    Parameters
    ----------
    bundle:
        The model bundle to score with; its content hash and schema
        version become the ``/health`` identity.
    observer:
        Telemetry sink; must expose a ``metrics``
        :class:`~repro.obs.metrics.MetricsRegistry` (the ``/metrics``
        source).  Defaults to a fresh
        :class:`~repro.obs.observer.TelemetryObserver`.
    recorder:
        Flight recorder for alert/lifecycle events (fresh default ring
        when omitted).
    host / port:
        HTTP bind address; ``port=0`` picks an ephemeral port, read
        back from :attr:`port` once started.
    status_tail:
        Recorder events embedded in each ``/status`` payload.

    Use as a context manager: entering starts the HTTP server and
    records a lifecycle event; exiting stops it.  Scoring happens by
    calling :meth:`score_batch` from the caller's own loop — the
    service never owns a thread of its own beyond the HTTP server's.
    """

    def __init__(self, bundle: ModelBundle, *,
                 observer: PipelineObserver | None = None,
                 recorder: FlightRecorder | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 status_tail: int = DEFAULT_STATUS_TAIL) -> None:
        self._observer = (observer if observer is not None
                          else TelemetryObserver())
        registry = getattr(self._observer, "metrics", None)
        if not isinstance(registry, MetricsRegistry):
            raise ServeError(
                "watch service needs an observer with a metrics registry "
                f"(got {type(self._observer).__name__}); pass a "
                "TelemetryObserver"
            )
        if status_tail < 0:
            raise ServeError(
                f"status_tail must be >= 0, got {status_tail}")
        self._registry = registry
        self.recorder = recorder if recorder is not None else FlightRecorder()
        self._scorer = StreamScorer(bundle, observer=self._observer)
        self._bundle_sha256 = content_hash(bundle.to_payload())
        self._status_tail = status_tail
        self._server = TelemetryHTTPServer(
            registry,
            health=self.health_payload,
            status=self.status_payload,
            recorder=self.recorder,
            host=host, port=port,
        )

    # -- scoring ----------------------------------------------------------

    def score_batch(self, serials: Sequence[str], hours: Sequence[int],
                    matrix: np.ndarray) -> VerdictBlock:
        """Score one column block and record its alerting verdicts.

        Returns exactly :meth:`StreamScorer.score_block`'s block — the
        recorder and metrics are observers, never participants, so a
        watched stream stays byte-identical to offline replay.  Only
        the alerting rows are materialized (for the recorder).
        """
        block = self._scorer.score_block(serials, hours, matrix)
        for row in block.alerting_rows().tolist():
            verdict = block.verdict_at(row)
            self.recorder.record(
                "alert",
                f"drive {verdict.serial} {verdict.level} "
                f"at hour {verdict.hour}",
                serial=verdict.serial,
                hour=verdict.hour,
                level=verdict.level,
                stage=verdict.stage,
                likely_type=verdict.likely_type,
            )
        return block

    # -- payloads ---------------------------------------------------------

    def health_payload(self) -> dict[str, Any]:
        """The ``/health`` body: liveness plus serving-model identity."""
        return {
            "status": "ok",
            "bundle_sha256": self._bundle_sha256,
            "schema_version": BUNDLE_SCHEMA_VERSION,
        }

    def status_payload(self) -> dict[str, Any]:
        """The ``/status`` body: fleet gauges and the recent event tail."""
        samples = self._scorer.samples_scored
        alerts = self._scorer.alerts_emitted
        return {
            "drives_tracked": self._scorer.drives_tracked,
            "samples_scored": samples,
            "alerts_emitted": alerts,
            "alert_rate": (alerts / samples) if samples else 0.0,
            "flight_recorder": {
                "total_recorded": self.recorder.total_recorded,
                "dropped": self.recorder.dropped,
                "tail": self.recorder.to_dicts(self._status_tail),
            },
        }

    # -- accessors --------------------------------------------------------

    @property
    def scorer(self) -> StreamScorer:
        """The underlying streaming scorer."""
        return self._scorer

    @property
    def observer(self) -> PipelineObserver:
        """The observer every scored batch reports through."""
        return self._observer

    @property
    def registry(self) -> MetricsRegistry:
        """The registry served at ``/metrics``."""
        return self._registry

    @property
    def handle(self):
        """The bound address as an :class:`~repro.obs.http.ServerHandle`."""
        return self._server.handle

    @property
    def host(self) -> str:
        """Bound HTTP host."""
        return self._server.host

    @property
    def port(self) -> int:
        """Bound HTTP port (the ephemeral pick when constructed with 0)."""
        return self._server.port

    @property
    def url(self) -> str:
        """Base URL of the telemetry endpoints."""
        return self._server.url

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "WatchService":
        """Start the HTTP surface and record the lifecycle event."""
        self._server.start()
        self.recorder.record("lifecycle", "watch service started",
                             url=self.url,
                             bundle_sha256=self._bundle_sha256)
        return self

    def stop(self) -> None:
        """Record the lifecycle event and stop the HTTP surface."""
        self.recorder.record("lifecycle", "watch service stopped",
                             samples_scored=self._scorer.samples_scored,
                             alerts_emitted=self._scorer.alerts_emitted)
        self._server.stop()

    def __enter__(self) -> "WatchService":
        return self.start()

    def __exit__(self, exc_type, exc, traceback) -> bool:
        self.stop()
        return False
