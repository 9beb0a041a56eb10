"""Serving layer: versioned model artifacts and streaming scoring.

``repro.serve`` turns the pipeline's in-process models into a deployable
service: :func:`build_bundle` freezes them into a versioned, hashed
:class:`ModelBundle`; :func:`save_bundle` / :func:`load_bundle`
round-trip the artifact on disk with typed corruption/staleness
detection; :class:`StreamScorer` consumes live SMART samples against a
loaded bundle, byte-identical to offline replay; :class:`ServingDaemon`
(:mod:`repro.serve.daemon`) is the always-on form — per-drive state
sharded by consistent hash (:mod:`repro.serve.shard`),
HTTP ingestion with explicit backpressure, live ``/metrics`` /
``/health`` / ``/status`` surfaces with a flight recorder of recent
alerts, and pluggable alert sinks (:mod:`repro.serve.sinks`).  Crash
safety is layered in by :mod:`repro.serve.wal` (per-shard write-ahead
logs with snapshot-bounded replay, which rebuild a :class:`ShardSet`
shard back to byte-identical state), and :class:`DeliveryPipeline`
retry/dead-letter delivery for alerts.  The ``repro-serve`` CLI (:mod:`repro.serve.cli`) fronts all
of it from the shell: its ``watch`` verb is a one-shard daemon fed from
a CSV stream, and ``recover`` is the offline crash-recovery tooling.
"""

from repro.serve.bundle import (
    BUNDLE_SCHEMA_VERSION,
    GroupArtifact,
    ModelBundle,
    build_bundle,
    bundle_from_document,
    content_hash,
    load_bundle,
    save_bundle,
    stamp_lineage,
)
from repro.serve.daemon import ServingDaemon
from repro.serve.scorer import (
    MonitorVerdict,
    StreamScorer,
)
from repro.serve.shard import HashRing, ShardSet
from repro.serve.sinks import (
    AlertSink,
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
from repro.serve.wal import ShardWal, WalRecord, WalRecovery

__all__ = [
    "AlertSink",
    "BUNDLE_SCHEMA_VERSION",
    "CallbackAlertSink",
    "DeadLetterWriter",
    "DeliveryPipeline",
    "DeliveryPolicy",
    "GroupArtifact",
    "HashRing",
    "JsonlAlertSink",
    "ModelBundle",
    "MonitorVerdict",
    "ServingDaemon",
    "ShardSet",
    "ShardWal",
    "StreamScorer",
    "WalRecord",
    "WalRecovery",
    "WebhookAlertSink",
    "build_bundle",
    "bundle_from_document",
    "content_hash",
    "load_bundle",
    "parse_sink_spec",
    "read_dead_letter",
    "reprocess_dead_letter",
    "save_bundle",
    "stamp_lineage",
]
