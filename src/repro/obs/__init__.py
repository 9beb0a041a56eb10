"""repro.obs — instrumentation substrate for the characterization pipeline.

The package gives the analyzer the telemetry production disk-health
systems expect of their own tooling:

* :mod:`repro.obs.tracing` — nestable stage spans with wall/CPU time,
  exportable as a JSON trace tree;
* :mod:`repro.obs.metrics` — counters, gauges and bounded streaming
  histograms behind a :class:`MetricsRegistry` with labeled families
  and JSON snapshots;
* :mod:`repro.obs.export` — Prometheus text exposition and
  atomic/periodic snapshot files;
* :mod:`repro.obs.recorder` — the :class:`FlightRecorder` bounded ring
  of recent alerts/errors with on-demand and on-crash dumps;
* :mod:`repro.obs.http` — the zero-dependency ``/metrics`` +
  ``/health`` + ``/status`` HTTP surface
  (:class:`TelemetryHTTPServer`);
* :mod:`repro.obs.logging` — one-call structured logging setup with
  per-module loggers and an optional JSON line format;
* :mod:`repro.obs.observer` — the :class:`PipelineObserver` seam the
  pipeline emits through (no-op by default, so uninstrumented runs pay
  nothing);
* :mod:`repro.obs.timing` — standalone ``timeit`` helpers.

See ``docs/observability.md`` for the operator-facing walkthrough.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".export": ("PROMETHEUS_CONTENT_TYPE", "PeriodicSnapshotWriter",
                "render_prometheus", "write_snapshot"),
    ".http": ("TelemetryHTTPServer",),
    ".logging": ("configure_logging", "get_logger", "verbosity_to_level"),
    ".metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    ".recorder": ("FlightEvent", "FlightRecorder"),
    ".observer": ("NULL_OBSERVER", "NoopObserver", "PipelineObserver",
                  "TelemetryObserver", "resolve_observer"),
    ".timing": ("TimeitResult", "format_duration", "timeit"),
    ".tracing": ("Span", "Tracer"),
})
