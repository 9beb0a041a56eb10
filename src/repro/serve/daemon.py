"""The fleet-scale serving daemon: one scoring partition behind HTTP.

:class:`ServingDaemon` is the always-on composition of the serving
stack: a :class:`~repro.serve.shard.ShardSet` (the one partition of
keyed per-drive state, a bounded queue, the WAL), the telemetry plane of
:mod:`repro.obs.http` (``/metrics``, ``/health``, ``/status``,
``/recorder``), an HTTP ingestion endpoint, and pluggable
:mod:`~repro.serve.sinks` for alert delivery.

``POST /ingest`` accepts either a JSON document::

    {"samples": [["serial", hour, [v1, v2, ...]], ...]}

or JSONL (``Content-Type: application/jsonl`` or ``?format=jsonl``),
one object per line::

    {"serial": "...", "hour": 123, "values": [v1, v2, ...]}

The default reply is a JSON summary ``{"accepted": n, "alerts": m}``;
``?verdicts=all`` (or ``=alerts``) returns the canonical verdict JSON
lines instead — byte-identical to offline ``repro-serve score`` output
for the same samples, however the stream is cut into batches.  A
malformed body answers 400 naming its first bad line or sample; a full
ingest queue answers **429 with a ``Retry-After`` header**,
and the rejected batch is never partially scored (all-or-nothing
admission, see :mod:`repro.serve.shard`).

``POST /drain`` asks the daemon to stop: in-flight batches finish,
the partition emits its state snapshot, the optional final-snapshot file
is written atomically, and :meth:`serve_forever` returns.  The CLI
wires SIGTERM/SIGINT to the same path.

``repro-serve watch`` is this daemon with no WAL, fed
from a CSV stream through :meth:`ServingDaemon.ingest_block` instead of
``POST /ingest`` (see :mod:`repro.serve.cli`).
"""

from __future__ import annotations

import json
import threading
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.core.monitor import AlertLevel
from repro.core.serialize import canonical_json_dumps
from repro.errors import (BackpressureError, BundleError, ServeError,
                          ShardRecoveringError)
from repro.ioutil import atomic_write_text
from repro.obs.http import HttpReply, TelemetryHTTPServer, ServerHandle
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import PipelineObserver, TelemetryObserver
from repro.obs.recorder import FlightRecorder
from repro.serve.bundle import (BUNDLE_SCHEMA_VERSION, ModelBundle,
                                bundle_from_document, content_hash)
from repro.serve.scorer import (HOUR_RANGE, VerdictBlock,
                                first_hour_out_of_range)
from repro.serve.shard import (DEFAULT_QUEUE_CAPACITY,
                               DEFAULT_SNAPSHOT_INTERVAL_BLOCKS, ShardSet)
from repro.serve.sinks import (AlertSink, DeliveryPipeline, DeliveryPolicy,
                               JsonlAlertSink)

#: Recorder events shown inline in the ``/status`` payload.
DEFAULT_STATUS_TAIL = 20

#: ``Retry-After`` seconds suggested on 429 replies by default.
DEFAULT_RETRY_AFTER_S = 1.0


#: Column triple every ingest decoder returns: serials, hours, and the
#: ``(n, width)`` float64 record matrix.
_Columns = tuple[list[str], list[int], np.ndarray]

#: Names of the JSON value types, for refusal messages.
_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "number",
               float: "number", bool: "boolean", type(None): "null"}

#: The stdlib's C JSON scanner: ``scan(text, 0)`` parses the value at
#: the start of ``text`` and returns it with its end offset.
_SCAN_JSON = json.JSONDecoder().scan_once


def _reference_columns(samples: Iterable[tuple[str, Any, Any, Any]],
                       noun: str) -> _Columns:
    """Per-sample decode of ``(where, serial, hour, values)`` rows.

    The reference every fast path must match: it converts one sample at
    a time — a JSON string serial, an ``int`` hour (a JSON integer, or
    an integer string as in CSV; never a float or boolean), ``float``
    per value — and refuses the first bad sample with a
    :class:`~repro.errors.ServeError` that starts with its ``where``
    (``line N`` or ``sample i``), an hour outside ``int64`` included.
    ``noun`` names the earlier rows in the width-mismatch message.
    ``json.loads`` accepts ``NaN`` and ``Infinity``, so a non-finite
    value is refused here too, after the whole batch has converted.
    """
    serials: list[str] = []
    hours: list[int] = []
    flat: list[float] = []
    places: list[str] = []
    width = -1
    for where, serial, hour, values in samples:
        if type(values) is not list:
            raise ServeError(f'{where}: "values" must be an array, got '
                             f"{_JSON_TYPES.get(type(values), 'a value')}")
        if width < 0:
            width = len(values)
        elif len(values) != width:
            raise ServeError(f"{where}: {len(values)} values where earlier "
                             f"{noun} had {width}")
        if type(serial) is not str:
            raise ServeError(f'{where}: "serial" must be a string, got '
                             f"{_JSON_TYPES.get(type(serial), 'a value')}")
        try:
            hours.append(int(hour))
            flat.extend(map(float, values))
        except (TypeError, ValueError, OverflowError) as error:
            raise ServeError(f"{where}: {error}") from error
        # After int(), so a non-finite hour keeps int()'s refusal text.
        if type(hour) in (float, bool):
            raise ServeError(f'{where}: "hour" must be an integer, got '
                             f"{json.dumps(hour)}")
        if hours[-1] not in HOUR_RANGE:
            raise ServeError(f'{where}: "hour" {hours[-1]} is outside the '
                             f"int64 range")
        serials.append(serial)
        places.append(where)
    matrix = np.asarray(flat, dtype=np.float64).reshape(len(serials),
                                                        max(width, 0))
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise ServeError(
            f"{places[int(np.argmin(finite))]}: non-finite value")
    return serials, hours, matrix


def _fast_columns(serials: Sequence[Any], hours: Sequence[Any],
                  values: Sequence[Any]) -> _Columns | None:
    """The columnar decode: no Python-level step per sample.

    Returns exactly what :func:`_reference_columns` returns for the
    same fields — all-``str`` serials and all-``int`` hours pass through
    as they are, and ``np.fromiter`` applies the same ``float``
    conversion in one C loop — or ``None`` whenever the reference could
    refuse or convert (a non-string serial, a non-``int`` hour or one
    outside ``int64``, a non-array or ragged ``values``, a bad or
    non-finite value), so the caller can rerun the reference.
    """
    if (set(map(type, values)) != {list}
            or set(map(type, serials)) != {str}
            or set(map(type, hours)) != {int}
            or first_hour_out_of_range(hours) is not None):
        return None
    widths = set(map(len, values))
    if len(widths) != 1:
        return None
    (width,) = widths
    try:
        flat = np.fromiter(chain.from_iterable(values), np.float64,
                           len(values) * width)
    except (TypeError, ValueError, OverflowError):
        return None
    # ``fromiter`` reads None as NaN; the reference refuses both.
    if not np.isfinite(flat).all():
        return None
    return list(serials), list(hours), flat.reshape(len(values), width)


def _sample_rows(samples: list[Any]) -> Iterator[tuple[str, Any, Any, Any]]:
    """``(where, serial, hour, values)`` per document-form sample."""
    for index, entry in enumerate(samples):
        if type(entry) is not list or len(entry) != 3:
            raise ServeError(f"sample {index}: expected [serial, hour, "
                             f"values], got {json.dumps(entry)[:80]}")
        yield (f"sample {index}", *entry)


def _parse_json_batch(body: bytes) -> _Columns | None:
    """Decode the JSON document ingest form straight into column arrays.

    Returns ``None`` when the body is not a ``{"samples": ...}``
    document at all (the caller then tries JSONL — a JSONL body is
    never such a document, so the fallback is unambiguous).  The
    document is parsed once; a batch of well-formed samples converts
    without a per-sample loop, anything else goes to the per-sample
    reference for its ``sample i:`` refusal.
    """
    try:
        document = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError):
        return None
    if not isinstance(document, dict) or "samples" not in document:
        return None
    samples = document["samples"]
    if type(samples) is not list:
        raise ServeError('"samples" must be an array, got '
                         f"{_JSON_TYPES.get(type(samples), 'a value')}")
    if (samples and set(map(type, samples)) == {list}
            and set(map(len, samples)) == {3}):
        serials, hours, values = zip(*samples)
        columns = _fast_columns(serials, hours, values)
        if columns is not None:
            return columns
    return _reference_columns(_sample_rows(samples), "samples")


def _jsonl_rows(lines: list[str]) -> Iterator[tuple[str, Any, Any, Any]]:
    """``(where, serial, hour, values)`` per non-empty JSONL line."""
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        where = f"line {number}"
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as error:
            raise ServeError(f"{where}: {error}") from error
        if type(record) is not dict:
            raise ServeError(
                f"{where}: expected an object with keys serial/hour/values, "
                f"got {_JSON_TYPES.get(type(record), 'a value')}")
        try:
            fields = (record["serial"], record["hour"], record["values"])
        except KeyError as error:
            raise ServeError(f"{where}: expected keys serial/hour/values "
                             f"(missing {error})") from error
        yield (where, *fields)


def _fast_jsonl(lines: list[str]) -> _Columns | None:
    """One C-level pass over the lines, or ``None`` to use the reference.

    Each stripped non-empty line goes through the C JSON scanner on its
    own (``map``, no Python frame per line), and must parse to one
    object spanning the whole line — the exact condition under which
    the reference's ``json.loads(line)`` returns that object.  Joining
    the lines into one ``[...]`` document would be a little cheaper but
    is not equivalent: an array split across two lines plus two objects
    on a third line still parse to one object per line there, while the
    reference refuses the split line.
    """
    lines = list(filter(None, map(str.strip, lines)))
    if not lines:
        return None
    try:
        # A line the scanner cannot start on raises StopIteration, which
        # ends the map early; the offset check below then fails.
        parsed = list(map(_SCAN_JSON, lines, repeat(0)))
    except (ValueError, RecursionError):
        return None
    records, ends = zip(*parsed) if parsed else ((), ())
    if (list(ends) != list(map(len, lines))
            or set(map(type, records)) != {dict}):
        return None
    try:
        fields = [list(map(itemgetter(key), records))
                  for key in ("serial", "hour", "values")]
    except KeyError:
        return None
    return _fast_columns(*fields)


def _parse_jsonl_batch(body: bytes) -> _Columns:
    """Decode the JSONL ingest form straight into column arrays."""
    try:
        lines = body.decode("utf-8").splitlines()
    except UnicodeDecodeError as error:
        before = body[:error.start].decode("utf-8")
        line = len((before + "_").splitlines())
        raise ServeError(f"line {line}: not UTF-8 ({error.reason})") from error
    columns = _fast_jsonl(lines)
    if columns is not None:
        return columns
    return _reference_columns(_jsonl_rows(lines), "lines")


class ServingDaemon:
    """A long-running scorer with ingestion and telemetry HTTP.

    Parameters
    ----------
    bundle:
        The model bundle to serve; its content hash and schema version
        are the ``/health`` identity.
    queue_capacity / throttle_s / retry_after_s:
        Admission knobs, passed to :class:`~repro.serve.shard.ShardSet`.
    sinks:
        Alert sinks handed the canonical line of every WATCH/CRITICAL
        verdict after scoring.  Sink failures are counted
        (``alert_sink_errors``) and logged to the flight recorder,
        never propagated to the sender.
    observer:
        Telemetry sink; must expose a metrics registry (the
        ``/metrics`` source).  Defaults to a fresh
        :class:`~repro.obs.observer.TelemetryObserver`.
    recorder:
        Flight recorder for alert/lifecycle events.
    host / port:
        HTTP bind address; ``port=0`` picks an ephemeral port (read it
        from :attr:`handle`).
    final_snapshot:
        Optional path; on shutdown the daemon writes a JSON document
        with the partition's state snapshot and totals there
        (atomically — fsync, then ``os.replace``).
    wal_dir:
        Root directory of the write-ahead log; enables crash
        recovery (see :mod:`repro.serve.wal` and
        ``docs/robustness.md``).  ``None`` (the default) serves without
        a WAL — the pre-crash-safety behavior.
    snapshot_interval_blocks:
        Blocks scored between WAL state checkpoints.
    dead_letter:
        JSONL path collecting the lines of alerts that exhausted sink
        delivery (an fsynced :class:`~repro.serve.sinks.JsonlAlertSink`
        all pipelines share); the daemon never drops an alert silently
        when this is set.
    delivery_policy:
        Retry/backoff/circuit-breaker tuning for alert delivery
        (defaults to :class:`~repro.serve.sinks.DeliveryPolicy`).
    learn:
        Attach a :class:`~repro.learn.drift.DriftDetector` to the
        ingest path (the ``repro-serve daemon --learn`` flag): every
        admitted block also updates rolling per-attribute baselines,
        and drift alarms land in the flight recorder plus the
        ``drift_alarms`` counter.  Detection never changes a verdict.
    drift_policy:
        Optional :class:`~repro.learn.drift.DriftPolicy` overriding the
        detector's thresholds (``learn=True`` only).
    """

    def __init__(self, bundle: ModelBundle, *,
                 queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
                 sinks: Sequence[AlertSink] = (),
                 observer: PipelineObserver | None = None,
                 recorder: FlightRecorder | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 throttle_s: float = 0.0,
                 retry_after_s: float = DEFAULT_RETRY_AFTER_S,
                 final_snapshot: str | Path | None = None,
                 wal_dir: str | Path | None = None,
                 snapshot_interval_blocks: int =
                 DEFAULT_SNAPSHOT_INTERVAL_BLOCKS,
                 dead_letter: str | Path | None = None,
                 delivery_policy: DeliveryPolicy | None = None,
                 learn: bool = False,
                 drift_policy: Any = None) -> None:
        self._observer = (observer if observer is not None
                          else TelemetryObserver())
        registry = getattr(self._observer, "metrics", None)
        if not isinstance(registry, MetricsRegistry):
            raise ServeError(
                "serving daemon needs an observer with a metrics registry "
                f"(got {type(self._observer).__name__}); pass a "
                "TelemetryObserver"
            )
        self._registry = registry
        self._bundle = bundle
        self._bundle_sha256 = content_hash(bundle.to_payload())
        self._sinks = list(sinks)
        self.recorder = recorder if recorder is not None else FlightRecorder()
        self._final_snapshot = (Path(final_snapshot)
                                if final_snapshot is not None else None)
        self._lock = threading.Lock()
        self._samples_accepted = 0
        self._alerts_emitted = 0
        self._stop_requested = threading.Event()
        self._stopped = False
        self._snapshot: dict[str, Any] | None = None
        self._previous_bundle: ModelBundle | None = None
        self._drift = None
        if learn:
            # Imported lazily: repro.learn's refit half depends on the
            # serving package, so a top-level import would be circular.
            from repro.learn.drift import DriftDetector
            self._drift = DriftDetector(
                bundle.attributes, policy=drift_policy,
                observer=self._observer)
        self._dead_letter = (JsonlAlertSink(dead_letter, fsync=True)
                             if dead_letter is not None else None)
        # The partition opens its WAL, then the port is bound, and only
        # then do the delivery threads start: a refused configuration or
        # a port in use leaves nothing open or running.
        self._partition = ShardSet(
            bundle, queue_capacity=queue_capacity, observer=self._observer,
            throttle_s=throttle_s, retry_after_s=retry_after_s,
            wal_dir=wal_dir,
            snapshot_interval_blocks=snapshot_interval_blocks,
        )
        try:
            self._server = TelemetryHTTPServer(
                registry,
                health=self.health_payload,
                status=self.status_payload,
                recorder=self.recorder,
                post_routes={
                    "/ingest": self._handle_ingest,
                    "/drain": self._handle_drain,
                    "/promote": self._handle_promote,
                },
                host=host, port=port,
            )
        except BaseException:
            self._partition.stop()
            raise
        self._pipelines = [
            DeliveryPipeline(sink, policy=delivery_policy,
                             dead_letter=self._dead_letter,
                             observer=self._observer,
                             recorder=self.recorder)
            for sink in self._sinks
        ]

    # -- ingestion --------------------------------------------------------

    def ingest_block(self, serials: Sequence[str], hours: Sequence[int],
                     matrix: Iterable[Iterable[float]],
                     block_id: str | None = None) -> VerdictBlock:
        """Score one columnar batch on the partition.

        The daemon's hot path: the batch stays struct-of-arrays from
        HTTP parse to scoring to reply accounting.  Raises
        :class:`~repro.errors.BackpressureError` when the ingest queue
        is full (nothing enqueued),
        :class:`~repro.errors.ShardRecoveringError` when the partition
        is replaying after a crash (also nothing enqueued), and
        :class:`~repro.errors.ServeError` on malformed batches.  Each
        (rare) alerting row is recorded in the flight recorder from the
        block's columns and, when the daemon has sinks, its canonical
        line (:meth:`~repro.serve.scorer.VerdictBlock.alert_lines`,
        rendered once per batch and reused by a ``?verdicts=alerts``
        reply) is offered to every delivery pipeline before this
        returns.

        ``block_id`` names the batch for exactly-once crash-safe
        retries (see :meth:`ShardSet.submit_block
        <repro.serve.shard.ShardSet.submit_block>`); HTTP clients pass
        it as ``?batch=``.
        """
        columns = np.asarray(matrix, dtype=np.float64)
        block = self._partition.submit_block(serials, hours, columns,
                                             block_id=block_id)
        with self._lock:
            self._samples_accepted += len(block)
            self._alerts_emitted += block.n_alerting
        if self._drift is not None:
            for alarm in self._drift.update(columns):
                self.recorder.record(
                    "drift", alarm.describe(),
                    attribute=alarm.attribute, alarm_kind=alarm.kind,
                    score=alarm.score, block_index=alarm.block_index)
        columns = block.block
        for row in block.alerting_rows().tolist():
            serial, hour = columns.serials[row], int(columns.hours[row])
            level = AlertLevel(int(columns.level_codes[row])).name
            likely = int(columns.likely_indices[row])
            self.recorder.record(
                "alert", f"drive {serial} {level} at hour {hour}",
                serial=serial, hour=hour, level=level,
                stage=float(columns.stages[likely, row]),
                likely_type=columns.types[likely].name,
            )
        if self._pipelines:
            # Each pipeline retries, breaks its circuit and dead-letters
            # on its own worker; offering never blocks scoring.
            for line in block.alert_lines():
                for pipeline in self._pipelines:
                    pipeline.offer(line)
        return block

    def _count_ingest(self, outcome: str) -> None:
        """Bump the labeled ``ingest_requests`` counter for one request."""
        self._registry.counter("ingest_requests",
                               labels={"outcome": outcome}).inc()

    def _handle_ingest(self, body: bytes, query: dict[str, str]) -> HttpReply:
        """``POST /ingest``: decode, admit, score, reply.

        ``?format=jsonl`` forces the line-oriented form; otherwise the
        body is parsed as the JSON document form if it is one and as
        JSONL if not.  A malformed batch — a syntax error, a missing
        key, a bad hour or value, a ``values`` that is not an array, or
        any non-finite value — answers 400 whose error starts with the
        first offending ``line N`` or ``sample i``, and nothing of it
        is scored.
        """
        try:
            parsed = (None if query.get("format") == "jsonl"
                      else _parse_json_batch(body))
            serials, hours, rows = (parsed if parsed is not None
                                    else _parse_jsonl_batch(body))
        except ServeError as error:
            self._count_ingest("bad_request")
            return HttpReply.json(400, {"error": f"malformed batch: {error}"})
        if not serials:
            self._count_ingest("ok")
            return HttpReply.json(200, {"accepted": 0, "alerts": 0})
        try:
            block = self.ingest_block(serials, hours, rows,
                                      block_id=query.get("batch"))
        except BackpressureError as error:
            self._count_ingest("backpressure")
            return HttpReply.json(
                429,
                {"error": str(error), "retry_after_s": error.retry_after_s},
                headers=(("Retry-After", f"{error.retry_after_s:g}"),),
            )
        except ShardRecoveringError as error:
            self._count_ingest("recovering")
            return HttpReply.json(
                503,
                {"error": str(error), "retry_after_s": error.retry_after_s},
                headers=(("Retry-After", f"{error.retry_after_s:g}"),),
            )
        except ServeError as error:
            self._count_ingest("bad_request")
            return HttpReply.json(400, {"error": str(error)})
        self._count_ingest("ok")
        self._observer.count("ingest_samples", len(block))
        wanted = query.get("verdicts")
        if wanted in ("all", "alerts"):
            lines = (block.to_json_lines() if wanted == "all"
                     else block.alert_lines())
            body_out = "".join(line + "\n" for line in lines).encode("utf-8")
            return HttpReply(200, body_out,
                             content_type="application/jsonl; charset=utf-8")
        return HttpReply.json(200, {"accepted": len(block),
                                    "alerts": block.n_alerting})

    def _handle_drain(self, body: bytes, query: dict[str, str]) -> HttpReply:
        """``POST /drain``: request a graceful stop, reply immediately."""
        self.request_stop()
        return HttpReply.json(202, {"status": "draining"})

    # -- promotion --------------------------------------------------------

    def promote_bundle(self, bundle: ModelBundle, *,
                       force: bool = False) -> dict[str, Any]:
        """Swap the active bundle for a challenger, atomically.

        Unless ``force``, the challenger must name the current champion
        in its lineage (``parent_sha256`` equal to the serving bundle's
        content hash) — a stale challenger built against an older
        generation is refused instead of silently skipping a step in
        the chain.  The swap itself is
        :meth:`ShardSet.promote <repro.serve.shard.ShardSet.promote>`:
        a clean fence in the partition's stream, WAL-logged so recovery
        replays with the right bundle generation.  The replaced
        champion is kept for :meth:`rollback_bundle`.
        """
        new_payload = bundle.to_payload()
        new_sha = content_hash(new_payload)
        with self._lock:
            current = self._bundle
            current_sha = self._bundle_sha256
        if new_sha == current_sha:
            raise ServeError(
                "challenger is the serving bundle (identical content "
                "hash); nothing to promote")
        if not force and bundle.parent_sha256 != current_sha:
            raise ServeError(
                f"challenger lineage names parent "
                f"{bundle.parent_sha256[:12] or '<none>'}…, but the "
                f"serving champion is {current_sha[:12]}… — refit "
                f"against the live champion or pass force")
        receipt = self._partition.promote(bundle)
        with self._lock:
            self._previous_bundle = current
            self._bundle = bundle
            self._bundle_sha256 = new_sha
        self._observer.count("bundle_promotions")
        self.recorder.record(
            "lifecycle",
            f"bundle promoted to generation {bundle.generation}",
            bundle_sha256=new_sha, parent_sha256=bundle.parent_sha256,
            generation=bundle.generation, forced=force)
        return receipt

    def rollback_bundle(self) -> dict[str, Any]:
        """Re-promote the bundle the last promotion replaced.

        The emergency lever of the learning loop: one call restores the
        previous champion (same fence semantics as a
        promotion).  Refuses when no promotion has happened yet.
        """
        with self._lock:
            previous = self._previous_bundle
        if previous is None:
            raise ServeError(
                "no previous bundle to roll back to (nothing was "
                "promoted on this daemon)")
        receipt = self._partition.promote(previous)
        previous_sha = content_hash(previous.to_payload())
        with self._lock:
            self._previous_bundle = self._bundle
            self._bundle = previous
            self._bundle_sha256 = previous_sha
        self._observer.count("bundle_rollbacks")
        self.recorder.record(
            "lifecycle",
            f"bundle rolled back to generation {previous.generation}",
            bundle_sha256=previous_sha, generation=previous.generation)
        return receipt

    def _handle_promote(self, body: bytes, query: dict[str, str]) -> HttpReply:
        """``POST /promote``: swap in a challenger bundle (or roll back).

        The body is a full hashed bundle artifact — the exact JSON
        :func:`~repro.serve.bundle.save_bundle` writes — verified with
        the same four gates as a disk load before the scorer sees it.
        ``?rollback=1`` ignores the body and restores the previous
        champion; ``?force=1`` skips the lineage check.  Lineage and
        state conflicts answer 409, malformed artifacts 400.
        """
        if query.get("rollback") in ("1", "true"):
            try:
                self.rollback_bundle()
            except ServeError as error:
                return HttpReply.json(409, {"error": str(error)})
            return HttpReply.json(200, {
                "status": "rolled_back",
                "bundle_sha256": self._bundle_sha256,
                "generation": self._bundle.generation,
            })
        try:
            payload = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            return HttpReply.json(
                400, {"error": f"malformed bundle artifact: {error}"})
        try:
            bundle = bundle_from_document(payload, source="POST /promote")
        except BundleError as error:
            return HttpReply.json(400, {"error": str(error)})
        try:
            self.promote_bundle(
                bundle, force=query.get("force") in ("1", "true"))
        except ServeError as error:
            return HttpReply.json(409, {"error": str(error)})
        return HttpReply.json(200, {
            "status": "promoted",
            "bundle_sha256": self._bundle_sha256,
            "generation": self._bundle.generation,
        })

    # -- payloads ---------------------------------------------------------

    def health_payload(self) -> dict[str, Any]:
        """The ``/health`` body: liveness plus serving-model identity.

        ``status`` is ``ok`` (HTTP 200), ``degraded`` (503 — the
        partition is replaying after a crash, or failed), or
        ``draining`` (503 — shutdown in progress).  ``partition`` is
        the scoring partition's own lifecycle: ``serving``,
        ``recovering`` or ``failed: <reason>``.
        """
        partition = self._partition.status()
        if self._stop_requested.is_set():
            status = "draining"
        elif partition == "serving":
            status = "ok"
        else:
            status = "degraded"
        return {
            "status": status,
            "bundle_sha256": self._bundle_sha256,
            "schema_version": BUNDLE_SCHEMA_VERSION,
            "generation": self._bundle.generation,
            "partition": partition,
            "wal": self._partition.wal_enabled,
            "learn": self._drift is not None,
        }

    def status_payload(self) -> dict[str, Any]:
        """The ``/status`` body: partition, sink list, recorder tail."""
        with self._lock:
            samples = self._samples_accepted
            alerts = self._alerts_emitted
        return {
            "queue_capacity": self._partition.queue_capacity,
            "inflight": self._partition.inflight(),
            "drives_tracked": self._partition.drives_tracked(),
            "samples_accepted": samples,
            "alerts_emitted": alerts,
            "alert_rate": (alerts / samples) if samples else 0.0,
            "sinks": [sink.describe() for sink in self._sinks],
            "draining": self._stop_requested.is_set(),
            "partition": self._partition.status(),
            "restarts": self._partition.restarts(),
            "wal": {
                "enabled": self._partition.wal_enabled,
                "dir": (str(self._partition.wal_dir)
                        if self._partition.wal_dir is not None else None),
            },
            "dead_letter": (str(self._dead_letter.path)
                            if self._dead_letter is not None else None),
            "bundle": {
                "sha256": self._bundle_sha256,
                "generation": self._bundle.generation,
                "parent_sha256": self._bundle.parent_sha256,
                "previous": (content_hash(self._previous_bundle.to_payload())
                             if self._previous_bundle is not None else None),
            },
            "learn": (self._drift.describe()
                      if self._drift is not None else None),
            "flight_recorder": {
                "total_recorded": self.recorder.total_recorded,
                "dropped": self.recorder.dropped,
                "tail": self.recorder.to_dicts(DEFAULT_STATUS_TAIL),
            },
        }

    # -- accessors --------------------------------------------------------

    @property
    def handle(self) -> ServerHandle:
        """The bound HTTP address (host, port, url, port-file writer)."""
        return self._server.handle

    @property
    def url(self) -> str:
        """Base URL of the daemon's endpoints."""
        return self._server.handle.url

    @property
    def observer(self) -> PipelineObserver:
        """The telemetry sink every scored batch reports through."""
        return self._observer

    @property
    def registry(self) -> MetricsRegistry:
        """The registry served at ``/metrics``."""
        return self._registry

    @property
    def partition(self) -> ShardSet:
        """The scoring partition (capacity, inflight count, WAL)."""
        return self._partition

    @property
    def samples_accepted(self) -> int:
        """Samples admitted and scored since start."""
        with self._lock:
            return self._samples_accepted

    @property
    def alerts_emitted(self) -> int:
        """Verdicts above HEALTHY since start."""
        with self._lock:
            return self._alerts_emitted

    @property
    def draining(self) -> bool:
        """Whether a stop was requested (``POST /drain``, a signal)."""
        return self._stop_requested.is_set()

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "ServingDaemon":
        """Start the HTTP surface (idempotent); returns self."""
        self._server.start()
        self.recorder.record(
            "lifecycle", "serving daemon started",
            url=self.url, bundle_sha256=self._bundle_sha256)
        return self

    def request_stop(self) -> None:
        """Ask the daemon to drain and stop (non-blocking, signal-safe)."""
        self._stop_requested.set()

    def serve_forever(self, poll_s: float = 0.2) -> None:
        """Block until :meth:`request_stop` (or ``POST /drain``), then stop."""
        while not self._stop_requested.wait(timeout=poll_s):
            pass
        self.stop()

    def stop(self) -> dict[str, Any]:
        """Drain, write the final snapshot, stop HTTP (idempotent).

        Every admitted batch finishes scoring before the partition
        checkpoints; the returned (and stored) snapshot carries its
        counters and keyed drive state.
        """
        with self._lock:
            if self._stopped:
                return dict(self._snapshot or {})
            self._stopped = True
        self._stop_requested.set()
        self._snapshot = self._partition.stop()
        if self._final_snapshot is not None:
            self._write_final_snapshot(self._final_snapshot)
        for pipeline in self._pipelines:
            pipeline.close()
        if self._dead_letter is not None:
            self._dead_letter.close()
        self.recorder.record(
            "lifecycle", "serving daemon stopped",
            samples_accepted=self._samples_accepted,
            alerts_emitted=self._alerts_emitted)
        self._server.stop()
        return dict(self._snapshot)

    def _write_final_snapshot(self, path: Path) -> None:
        """Atomically write the shutdown snapshot document.

        Goes through :func:`repro.ioutil.atomic_write_text` — fsync
        before ``os.replace`` — so a crash during shutdown can neither
        tear the file nor leave an empty rename visible after power
        loss.
        """
        document = {
            "bundle_sha256": self._bundle_sha256,
            "schema_version": BUNDLE_SCHEMA_VERSION,
            "samples_accepted": self._samples_accepted,
            "alerts_emitted": self._alerts_emitted,
            "partition": self._snapshot,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, canonical_json_dumps(document) + "\n")

    def __enter__(self) -> "ServingDaemon":
        return self.start()

    def __exit__(self, exc_type, exc, traceback) -> bool:
        self.stop()
        return False
