"""Telemetry export: Prometheus exposition and snapshots.

The batch pipeline snapshots its metrics once at exit; a long-running
scorer must *publish* them instead.  This module is the wire layer:

* :func:`render_prometheus` — the registry in Prometheus text
  exposition format (version 0.0.4), stable ordering, proper label
  escaping, counters suffixed ``_total``, histograms expanded into
  cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count`` lines;
* :func:`write_snapshot` — one atomic combined snapshot file (JSON);
* :class:`PeriodicSnapshotWriter` — a daemon thread calling
  :func:`write_snapshot` every ``interval_s`` seconds, so an operator
  can tail the latest state of a scorer that predates the HTTP surface
  (or runs where no scraper reaches).

Everything here *reads* registries other threads may be writing.  The
registry's per-operation updates are atomic under the GIL, so a render
taken mid-update is a consistent-enough monitoring view; no exporter
ever blocks the scoring hot path on a lock.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path
from typing import Any

from repro.errors import ObservabilityError
from repro.ioutil import atomic_write_text
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    render_label_suffix,
)
from repro.obs.tracing import Tracer

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Prefix applied to every exposed metric name (``samples_scored`` is
#: exposed as ``repro_samples_scored_total``), namespacing the library
#: in shared Prometheus servers.
DEFAULT_NAMESPACE = "repro"


def _format_value(value: float) -> str:
    """Exposition-stable number formatting (integers without a dot)."""
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_bound(bound: float) -> str:
    """``le`` bound formatting; the +Inf bucket renders as ``+Inf``."""
    if math.isinf(bound):
        return "+Inf"
    return format(bound, ".10g")


def render_prometheus(registry: MetricsRegistry, *,
                      namespace: str = DEFAULT_NAMESPACE) -> str:
    """Render ``registry`` in Prometheus text exposition format.

    Families are name-sorted and labeled members label-sorted, so equal
    registries render byte-identically — the exposition is golden-
    testable.  Counters follow the ``_total`` naming convention;
    histograms expose cumulative buckets over the registry's fixed
    log-spaced bounds plus exact ``_sum`` / ``_count``.
    """
    prefix = f"{namespace}_" if namespace else ""
    lines: list[str] = []
    for name, kind, members in registry.families():
        exposed = f"{prefix}{name}_total" if kind == "counter" \
            else f"{prefix}{name}"
        lines.append(f"# TYPE {exposed} {kind}")
        for metric in members:
            suffix = render_label_suffix(metric.labels)
            if isinstance(metric, Histogram):
                lines.extend(_histogram_lines(exposed, metric))
            else:
                lines.append(
                    f"{exposed}{suffix} {_format_value(metric.value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def _histogram_lines(exposed: str, histogram: Histogram) -> list[str]:
    """Cumulative bucket / sum / count sample lines for one histogram."""
    lines = []
    for bound, cumulative in histogram.cumulative_buckets():
        labels = list(histogram.labels) + [("le", _format_bound(bound))]
        body = ",".join(f'{k}="{v}"' for k, v in labels)
        lines.append(f"{exposed}_bucket{{{body}}} {cumulative}")
    suffix = render_label_suffix(histogram.labels)
    lines.append(f"{exposed}_sum{suffix} {_format_value(histogram.sum)}")
    lines.append(f"{exposed}_count{suffix} {histogram.count}")
    return lines


def write_snapshot(registry: MetricsRegistry, path: str | Path, *,
                   tracer: Tracer | None = None) -> Path:
    """Atomically write a combined JSON snapshot of the registry.

    The payload carries the metric snapshot (and the trace tree when a
    tracer is given) under stable keys; the write goes through a
    same-directory temp file and an atomic rename, so a reader tailing
    the file never sees a torn snapshot.
    """
    path = Path(path)
    payload: dict[str, Any] = {"metrics": registry.snapshot()}
    if tracer is not None:
        payload["trace"] = tracer.to_dict()
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    try:
        atomic_write_text(path, text)
    except OSError as error:
        raise ObservabilityError(
            f"cannot write telemetry snapshot to {path}: {error}"
        ) from error
    return path


class PeriodicSnapshotWriter:
    """Background thread writing :func:`write_snapshot` on an interval.

    The writer is a context manager::

        with PeriodicSnapshotWriter(registry, "metrics.json", 5.0):
            ...  # snapshot refreshed every 5 s, once more on exit

    ``stop()`` always writes one final snapshot, so the file reflects
    the end state even for runs shorter than one interval.
    """

    def __init__(self, registry: MetricsRegistry, path: str | Path,
                 interval_s: float, *, tracer: Tracer | None = None) -> None:
        if interval_s <= 0:
            raise ObservabilityError(
                f"snapshot interval must be positive, got {interval_s}"
            )
        self._registry = registry
        self._path = Path(path)
        self._interval_s = float(interval_s)
        self._tracer = tracer
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.writes = 0

    def write_now(self) -> Path:
        """Write one snapshot immediately (also used by the thread)."""
        result = write_snapshot(self._registry, self._path,
                                tracer=self._tracer)
        self.writes += 1
        return result

    def start(self) -> "PeriodicSnapshotWriter":
        """Start the daemon writer thread (idempotent)."""
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-snapshot-writer", daemon=True)
            self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            self.write_now()

    def stop(self) -> None:
        """Stop the thread and write the final snapshot."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.write_now()

    def __enter__(self) -> "PeriodicSnapshotWriter":
        return self.start()

    def __exit__(self, exc_type, exc, traceback) -> bool:
        self.stop()
        return False
