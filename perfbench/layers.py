"""The program's layers: which calls the traced run times, and the
per-layer metrics derived from the recorded spans.

Every target is a public entry point of its module, with two
exceptions that have no public seam: the daemon's ``/ingest`` route
handler (``ServingDaemon._handle_ingest``, the callable registered as
the ``/ingest`` POST route) and the ``score`` subcommand's verdict
writer (``repro.serve.cli._write_verdicts``).

Metric names ending in ``_s`` are summed self times in seconds: a
span's duration minus what its child spans cover.  Two spans wait on
work done on other threads or in other processes, and for those the
children are found by overlap instead of by nesting:

* the client's ``obs.http.round_trip`` covers the daemon's ``/ingest``
  handler span for the same POST (one connection, one POST in flight);
* ``serve.shard.submit_block`` covers the shard workers' root spans
  (WAL append, scoring, snapshots) that overlap it.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from collections import defaultdict
from typing import Any, Iterable

from spantrace import Span, Target, covered

#: Span recorded by ``launch.py`` around the program's ``main()``; it is
#: the wall time of a job, not a layer.
MAIN_SPAN = "launch.main"

#: Span recorded by the load client around each POST round trip.
ROUND_TRIP_SPAN = "obs.http.round_trip"


def _batch_of(args: tuple) -> str | None:
    query = args[2] if len(args) > 2 else None
    return query.get("batch") if isinstance(query, dict) else None


def _block_of(args: tuple) -> str | None:
    payload = args[1] if len(args) > 1 else None
    if not isinstance(payload, dict) or "block_id" not in payload:
        return None
    return str(payload["block_id"]).split("/", 1)[0]


def _segment_bytes(args: tuple) -> int:
    return int(getattr(args[0], "_segment_bytes", 0))


def _appended_bytes(args: tuple, result: Any, before: int) -> int:
    after = _segment_bytes(args)
    return after - before if after >= before else after


def _ring_bytes(args: tuple, result: Any, before: Any) -> int:
    store, normalized = args[0], args[2]
    return store.capacity * store.history_hours * normalized.shape[1] * 8


TARGETS: tuple[Target, ...] = (
    # HTTP route handler and daemon fan-out.
    Target("serve.daemon.handle_ingest", "repro.serve.daemon",
           "ServingDaemon._handle_ingest", rid=_batch_of,
           probe=lambda args, result, _: result.status),
    Target("serve.daemon.ingest_block", "repro.serve.daemon",
           "ServingDaemon.ingest_block"),
    # Shard plane.
    Target("serve.shard.submit_block", "repro.serve.shard",
           "ShardSet.submit_block"),
    Target("serve.shard.gather", "repro.serve.scorer", "VerdictBlock.gather"),
    # Write-ahead log.
    Target("serve.wal.encode_block", "repro.serve.wal", "encode_block"),
    Target("serve.wal.append", "repro.serve.wal", "ShardWal.append",
           rid=_block_of, before=_segment_bytes, probe=_appended_bytes),
    Target("serve.wal.sync", "repro.serve.wal", "ShardWal.sync"),
    Target("serve.wal.write_snapshot", "repro.serve.wal",
           "ShardWal.write_snapshot",
           probe=lambda args, result, _: os.path.getsize(result)),
    # Scorer and verdict materialization.
    Target("serve.scorer.score_block", "repro.serve.scorer",
           "StreamScorer.score_block",
           probe=lambda args, result, _: len(args[1])),
    Target("serve.scorer.push_many", "repro.serve.scorer",
           "StreamScorer.push_many",
           probe=lambda args, result, _: len(result)),
    Target("serve.scorer.dump_state", "repro.serve.scorer",
           "StreamScorer.dump_state"),
    Target("serve.scorer.verdict_at", "repro.serve.scorer",
           "VerdictBlock.verdict_at"),
    Target("serve.scorer.from_alert", "repro.serve.scorer",
           "MonitorVerdict.from_alert"),
    Target("serve.scorer.to_json_line", "repro.serve.scorer",
           "MonitorVerdict.to_json_line"),
    Target("core.columnar.alerts", "repro.core.columnar", "AlertBlock.alerts"),
    Target("core.columnar.alert_at", "repro.core.columnar",
           "AlertBlock.alert_at"),
    # Score kernel.
    Target("core.monitor.observe_many", "repro.core.monitor",
           "DegradationMonitor.observe_many"),
    Target("core.monitor.observe_columns", "repro.core.monitor",
           "DegradationMonitor.observe_columns"),
    Target("core.columnar.record_block", "repro.core.columnar",
           "ColumnStateStore.record_block", probe=_ring_bytes),
    Target("smart.normalization.transform", "repro.smart.normalization",
           "MinMaxNormalizer.transform"),
    Target("ml.tree.predict", "repro.ml.tree", "RegressionTree.predict"),
    Target("ml.tree.fit", "repro.ml.tree", "RegressionTree.fit"),
    # Alert delivery.
    Target("serve.sinks.emit", "repro.serve.sinks", "JsonlAlertSink.emit"),
    # repro-serve score.
    Target("serve.cli.run_score", "repro.serve.cli", "run_score"),
    Target("serve.cli.write_verdicts", "repro.serve.cli", "_write_verdicts"),
    # Bundle artifact.
    Target("serve.bundle.load", "repro.serve.bundle", "load_bundle"),
    Target("serve.bundle.build", "repro.serve.bundle", "build_bundle"),
    Target("serve.bundle.save", "repro.serve.bundle", "save_bundle"),
    # Offline characterization.
    Target("sim.simulate", "repro.sim.fleet", "simulate_fleet"),
    Target("data.normalize", "repro.data.dataset", "DiskDataset.normalize"),
    Target("data.cache.load", "repro.data.cache", "DatasetCache.load",
           probe=lambda args, result, _: 1 if result is None else 0),
    Target("data.cache.store", "repro.data.cache", "DatasetCache.store"),
    Target("data.cache.key_for", "repro.data.cache", "DatasetCache.key_for"),
    Target("core.records", "repro.core.records", "build_failure_records"),
    Target("core.categorize", "repro.core.categorize",
           "FailureCategorizer.categorize"),
    Target("core.signatures", "repro.core.signatures", "derive_signature"),
    Target("core.influence", "repro.core.influence",
           "rw_attribute_correlations"),
    Target("core.influence.top", "repro.core.influence",
           "top_correlated_attributes"),
    Target("core.prediction.evaluate", "repro.core.prediction",
           "DegradationPredictor.evaluate_all"),
)

#: Worker-thread root spans a ``submit_block`` call waits on.
SHARD_WORK = frozenset({
    "serve.wal.encode_block", "serve.wal.append", "serve.wal.write_snapshot",
    "serve.scorer.score_block", "serve.scorer.dump_state",
})

#: Every per-layer metric, in report order, with its unit.  Each metric
#: is the self time (``_s``) or count of the listed spans, or is
#: computed in :func:`layer_metrics`.
PER_LAYER: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("obs.http.self_s", "s", (ROUND_TRIP_SPAN,)),
    ("obs.http.requests", "count", (ROUND_TRIP_SPAN,)),
    ("serve.daemon.decode_s", "s", ("serve.daemon.handle_ingest",)),
    ("serve.daemon.fanout_s", "s", ("serve.daemon.ingest_block",)),
    ("serve.daemon.refused", "count", ()),
    ("serve.shard.wait_s", "s", ("serve.shard.submit_block",)),
    ("serve.shard.gather_s", "s", ("serve.shard.gather",)),
    ("serve.shard.subblocks", "count", ()),
    ("serve.shard.rows_per_subblock", "rows", ()),
    ("serve.wal.append_s", "s", ("serve.wal.append",
                               "serve.wal.encode_block")),
    ("serve.wal.appends", "count", ("serve.wal.append",)),
    ("serve.wal.fsync_s", "s", ("serve.wal.sync",)),
    ("serve.wal.fsyncs", "count", ("serve.wal.sync",)),
    ("serve.wal.snapshot_s", "s", ("serve.wal.write_snapshot",)),
    ("serve.wal.snapshots", "count", ("serve.wal.write_snapshot",)),
    ("serve.wal.snapshot_bytes", "bytes", ()),
    ("serve.wal.bytes_per_sample", "bytes", ()),
    ("serve.scorer.score_block_s", "s", ("serve.scorer.score_block",)),
    ("serve.scorer.push_many_s", "s", ("serve.scorer.push_many",)),
    ("serve.scorer.dump_state_s", "s", ("serve.scorer.dump_state",)),
    ("serve.scorer.materialize_s", "s", (
        "serve.scorer.verdict_at", "serve.scorer.from_alert",
        "core.columnar.alerts", "core.columnar.alert_at")),
    ("serve.scorer.verdicts_materialized", "count",
     ("serve.scorer.from_alert",)),
    ("serve.scorer.json_s", "s", ("serve.scorer.to_json_line",)),
    ("smart.normalization.transform_s", "s",
     ("smart.normalization.transform",)),
    ("ml.tree.predict_s", "s", ("ml.tree.predict",)),
    ("ml.tree.predict_calls", "count", ("ml.tree.predict",)),
    ("core.monitor.observe_columns_s", "s", (
        "core.monitor.observe_columns", "core.monitor.observe_many")),
    ("core.columnar.record_block_s", "s", ("core.columnar.record_block",)),
    ("core.columnar.ring_bytes", "bytes", ()),
    ("serve.sinks.emit_s", "s", ("serve.sinks.emit",)),
    ("serve.sinks.emits", "count", ("serve.sinks.emit",)),
    ("serve.sinks.retries", "count", ()),
    ("serve.sinks.dead_letters", "count", ()),
    ("serve.cli.parse_s", "s", ("serve.cli.run_score",)),
    ("serve.cli.write_s", "s", ("serve.cli.write_verdicts",)),
    ("serve.bundle.load_s", "s", ("serve.bundle.load",)),
    ("serve.bundle.build_s", "s", ("serve.bundle.build",)),
    ("serve.bundle.save_s", "s", ("serve.bundle.save",)),
    ("sim.simulate_s", "s", ("sim.simulate",)),
    ("data.normalize_s", "s", ("data.normalize",)),
    ("data.cache.misses", "count", ()),
    ("data.cache_s", "s", ("data.cache.load", "data.cache.store",
                           "data.cache.key_for")),
    ("core.records_s", "s", ("core.records",)),
    ("core.categorize_s", "s", ("core.categorize",)),
    ("core.signatures_s", "s", ("core.signatures",)),
    ("core.influence_s", "s", ("core.influence", "core.influence.top")),
    ("core.prediction.evaluate_s", "s", ("core.prediction.evaluate",)),
    ("ml.tree.fit_s", "s", ("ml.tree.fit",)),
    ("ml.tree.fits", "count", ("ml.tree.fit",)),
    ("trace.overhead", "ratio", ()),
    ("trace.coverage", "ratio", ()),
)


def self_times(spans: list[Span]) -> dict[tuple[int, int], int]:
    """Self time in nanoseconds of every span, keyed by span key.

    Nested children come from parent links; the two waiting spans
    (see the module docstring) also lose whatever overlapping work
    they waited on in other threads or processes.
    """
    nested: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            nested[span.parent].append((span.start, span.end))
    handlers = sorted((s for s in spans
                       if s.name == "serve.daemon.handle_ingest"),
                      key=lambda s: s.start)
    work = sorted((s for s in spans
                   if s.name in SHARD_WORK and s.parent is None),
                  key=lambda s: s.start)
    handler_starts = [span.start for span in handlers]
    work_starts = [span.start for span in work]
    result = {}
    for span in spans:
        children = nested.get(span.key, [])
        if span.name == ROUND_TRIP_SPAN:
            children = children + _overlapping(handlers, handler_starts,
                                               span, None)
        elif span.name == "serve.shard.submit_block":
            children = children + _overlapping(work, work_starts, span,
                                               span.thread)
        result[span.key] = span.duration - covered(span.start, span.end,
                                                   children)
    return result


def _overlapping(candidates: list[Span], starts: list[int], waiter: Span,
                 own_thread: tuple[int, int] | None) -> list[tuple[int, int]]:
    """Intervals of ``candidates`` (sorted by start) overlapping ``waiter``.

    With ``own_thread`` set, only spans of the same process on other
    threads count.
    """
    found = []
    for index in range(bisect_right(starts, waiter.end) - 1, -1, -1):
        span = candidates[index]
        if span.end <= waiter.start:
            if waiter.start - span.start > 60 * 10**9:
                break
            continue
        if own_thread is not None and (span.thread == own_thread
                                       or span.thread[0] != own_thread[0]):
            continue
        found.append((span.start, span.end))
    return found


def layer_metrics(spans: list[Span], window: tuple[int, int],
                  wall_s: float, overhead: float,
                  counters: dict[str, float]) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced phase.

    Only spans starting inside ``window`` (the timed phase, in
    ``perf_counter_ns``) count, except bundle loads, which happen in
    set-up.  ``wall_s`` is the phase's wall time for ``trace.coverage``;
    ``counters`` carries the values read from the daemon's ``/metrics``
    (sink retries and dead letters).
    """
    selfs = self_times(spans)
    lo, hi = window
    in_window = [s for s in spans if lo <= s.start <= hi]
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        if lo <= span.start <= hi or span.name == "serve.bundle.load":
            by_name[span.name].append(span)

    def total_self(names: Iterable[str]) -> float:
        return sum(selfs[s.key] for name in names for s in by_name[name]) / 1e9

    metrics: dict[str, float] = {}
    for name, unit, span_names in PER_LAYER:
        if not span_names:
            continue
        if unit == "count":
            metrics[name] = float(sum(len(by_name[n]) for n in span_names))
        else:
            metrics[name] = total_self(span_names)

    handlers = by_name["serve.daemon.handle_ingest"]
    metrics["serve.daemon.refused"] = float(
        sum(1 for s in handlers if s.value != 200))
    blocks = by_name["serve.scorer.score_block"]
    rows = sum(s.value for s in blocks)
    metrics["serve.shard.subblocks"] = float(len(blocks))
    metrics["serve.shard.rows_per_subblock"] = (
        rows / len(blocks) if blocks else 0.0)
    snapshots = by_name["serve.wal.write_snapshot"]
    metrics["serve.wal.snapshot_bytes"] = (
        sum(s.value for s in snapshots) / len(snapshots) if snapshots else 0.0)
    appended = sum(s.value for s in by_name["serve.wal.append"])
    metrics["serve.wal.bytes_per_sample"] = appended / rows if rows else 0.0
    ring: dict[tuple[int, int], float] = {}
    for span in by_name["core.columnar.record_block"]:
        ring[span.thread] = max(ring.get(span.thread, 0.0), span.value)
    per_process: dict[int, float] = defaultdict(float)
    for (pid, _thread), value in ring.items():
        per_process[pid] += value
    metrics["core.columnar.ring_bytes"] = max(per_process.values(),
                                              default=0.0)
    metrics["data.cache.misses"] = float(
        sum(s.value for s in by_name["data.cache.load"]))
    metrics["serve.sinks.retries"] = counters.get("sink_retries", 0.0)
    metrics["serve.sinks.dead_letters"] = counters.get("alert_sink_errors",
                                                       0.0)
    metrics["trace.overhead"] = overhead
    layer_self = sum(selfs[s.key] for s in in_window if s.name != MAIN_SPAN)
    metrics["trace.coverage"] = layer_self / 1e9 / wall_s if wall_s else 0.0
    return metrics
