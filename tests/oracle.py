"""The scalar scoring oracle the serving tests compare against.

Every served path (``score_block``, ``push_many``, the shard plane,
HTTP ingest, WAL recovery, ``score``/``watch``) must emit, byte for
byte, the canonical lines of :meth:`DegradationMonitor.observe
<repro.core.monitor.DegradationMonitor.observe>` called once per sample
on a bundle's models, wrapped by ``MonitorVerdict.from_alert``.
"""

from repro.core.monitor import DegradationMonitor
from repro.serve.scorer import MonitorVerdict


def oracle_monitor(bundle):
    """A fresh per-sample monitor configured exactly like ``bundle``."""
    return DegradationMonitor(
        bundle.predictor(), bundle.normalizer(),
        watch_threshold=bundle.watch_threshold,
        critical_threshold=bundle.critical_threshold)


def oracle_verdicts(monitor, samples):
    """One verdict per ``(serial, hour, record)`` sample, in order."""
    return [MonitorVerdict.from_alert(monitor.observe(serial, int(hour),
                                                      record))
            for serial, hour, record in samples]


def oracle_lines(bundle, samples):
    """Canonical JSON lines of a fresh oracle fed ``samples`` in order."""
    return [verdict.to_json_line()
            for verdict in oracle_verdicts(oracle_monitor(bundle), samples)]
