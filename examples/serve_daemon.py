"""Run the serving daemon and talk to it over HTTP, end to end.

The fleet-scale serving loop of :mod:`repro.serve.daemon`:

1. characterize a training fleet and freeze the models into a bundle;
2. start a :class:`repro.serve.ServingDaemon` — per-drive state on one
   scoring partition, a JSONL alert sink attached, HTTP
   ingestion and the full telemetry plane on an ephemeral port;
3. POST live telemetry to ``/ingest`` exactly as a collector would,
   read back canonical verdict lines, and scrape ``/metrics`` and
   ``/status`` while scoring;
4. drain gracefully and inspect the final state snapshot and
   the alerts the sink captured.

The same daemon ships as ``repro-serve daemon``; the operations story
(signals, backpressure, sink specs, scrape config) is in
``docs/operations.md``.

Usage::

   python examples/serve_daemon.py
"""

from __future__ import annotations

import json
import tempfile
import urllib.request
from pathlib import Path

from repro import (
    CharacterizationPipeline,
    FleetConfig,
    build_bundle,
    load_bundle,
    save_bundle,
    simulate_fleet,
)
from repro.serve import JsonlAlertSink, ServingDaemon


def main() -> None:
    print("Training the characterization models...")
    training_fleet = simulate_fleet(FleetConfig(n_drives=2000, seed=71))
    report = CharacterizationPipeline(seed=71).run(training_fleet.dataset)

    workdir = Path(tempfile.mkdtemp())
    bundle_path = workdir / "fleet.bundle.json"
    save_bundle(build_bundle(report, seed=71), bundle_path)
    bundle = load_bundle(bundle_path)

    alerts_path = workdir / "alerts.jsonl"
    snapshot_path = workdir / "final-snapshot.json"
    daemon = ServingDaemon(
        bundle,
        sinks=[JsonlAlertSink(alerts_path)],
        final_snapshot=snapshot_path,
    )

    with daemon:
        print(f"Daemon serving on {daemon.url} "
              "(POST /ingest /drain; GET /metrics /health /status)")

        # A collector POSTs batches of raw samples; the daemon scores
        # them and answers verdict lines.
        live_fleet = simulate_fleet(FleetConfig(n_drives=200, seed=72))
        profiles = (live_fleet.dataset.failed_profiles[:10]
                    + live_fleet.dataset.good_profiles[:50])
        batch = {
            "samples": [
                [profile.serial, int(hour), [float(v) for v in row]]
                for profile in profiles
                for hour, row in zip(profile.hours, profile.matrix)
            ]
        }
        request = urllib.request.Request(
            daemon.url + "/ingest?verdicts=alerts",
            data=json.dumps(batch).encode("utf-8"), method="POST",
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as reply:
            alert_lines = reply.read().decode("utf-8").splitlines()
        print(f"Ingested {len(batch['samples'])} samples over HTTP; "
              f"{len(alert_lines)} alerting verdicts came back")
        if alert_lines:
            worst = json.loads(alert_lines[-1])
            print(f"  latest alert: drive {worst['serial']} "
                  f"{worst['level']} at hour {worst['hour']} "
                  f"(likely {worst['likely_type']})")

        # The telemetry plane answers while scoring continues.
        with urllib.request.urlopen(daemon.url + "/status",
                                    timeout=5) as reply:
            status = json.loads(reply.read())
        print(f"  /status: {status['samples_accepted']} samples, "
              f"partition {status['partition']}, "
              f"{status['drives_tracked']} drives tracked, "
              f"alert rate {status['alert_rate']:.3f}")
        with urllib.request.urlopen(daemon.url + "/metrics",
                                    timeout=5) as reply:
            metrics = reply.read().decode("utf-8")
        ingest_lines = [line for line in metrics.splitlines()
                        if line.startswith("repro_ingest_")]
        print("  /metrics ingest counters:")
        for line in ingest_lines:
            print(f"    {line}")

    # Leaving the context drains the partition: every admitted batch has
    # finished scoring and the keyed state snapshot is written.
    snapshot = json.loads(snapshot_path.read_text())
    print(f"Drained. Final snapshot: {snapshot['samples_accepted']} samples, "
          f"{snapshot['alerts_emitted']} alerts; "
          f"{snapshot['partition']['drives_tracked']} drives tracked")
    print(f"Alert sink captured "
          f"{len(alerts_path.read_text().splitlines())} JSONL alerts "
          f"at {alerts_path}")


if __name__ == "__main__":
    main()
