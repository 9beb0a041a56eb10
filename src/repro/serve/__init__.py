"""Serving layer: versioned model artifacts and streaming scoring.

``repro.serve`` turns the pipeline's in-process models into a deployable
service: :func:`build_bundle` freezes them into a versioned, hashed
:class:`ModelBundle`; :func:`save_bundle` / :func:`load_bundle`
round-trip the artifact on disk with typed corruption/staleness
detection; :class:`StreamScorer` consumes live SMART samples against a
loaded bundle, byte-identical to offline replay; :class:`ServingDaemon`
(:mod:`repro.serve.daemon`) is the always-on form — keyed per-drive
state on one scoring partition (:mod:`repro.serve.shard`), HTTP
ingestion with explicit backpressure, live ``/metrics`` /
``/health`` / ``/status`` surfaces with a flight recorder of recent
alerts, and pluggable alert sinks (:mod:`repro.serve.sinks`).  Crash
safety is layered in by :mod:`repro.serve.wal` (a write-ahead log with
snapshot-bounded replay, which rebuilds the :class:`ShardSet`
partition back to byte-identical state), and :class:`DeliveryPipeline`
retry/dead-letter delivery for alerts.  The ``repro-serve`` CLI
(:mod:`repro.serve.cli`) fronts all of it from the shell: its
``watch`` verb is the daemon fed from a CSV stream, and ``recover`` is
the offline crash-recovery tooling.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".bundle": ("BUNDLE_SCHEMA_VERSION", "GroupArtifact", "ModelBundle",
                "build_bundle", "bundle_from_document", "content_hash",
                "load_bundle", "save_bundle", "stamp_lineage"),
    ".daemon": ("ServingDaemon",),
    ".scorer": ("MonitorVerdict", "StreamScorer"),
    ".shard": ("HashRing", "ShardSet"),
    ".sinks": ("AlertSink", "CallbackAlertSink", "DeliveryPipeline",
               "DeliveryPolicy", "JsonlAlertSink", "WebhookAlertSink",
               "parse_sink_spec", "read_dead_letter",
               "reprocess_dead_letter"),
    ".wal": ("ShardWal", "WalRecord", "WalRecovery"),
})
