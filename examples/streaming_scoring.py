"""Streaming scoring: train once, export a bundle, score a live stream.

The serving loop of :mod:`repro.serve` end to end:

1. characterize a training fleet and freeze its models — normalization
   extrema, taxonomy + centroids, fitted regression trees, monitor
   thresholds — into a versioned, hashed bundle file;
2. reload the bundle (as a scoring host would: the training process is
   gone) and stream a fresh fleet's telemetry through a
   :class:`repro.serve.StreamScorer`, one columnar block per drive; the
   scorer keeps each drive's last level, so ``drives_at(CRITICAL)``
   lists the drives whose latest verdict is CRITICAL;
3. verify the contract that makes serving trustworthy: the streamed
   verdicts are byte-identical to an offline
   :meth:`DegradationMonitor.replay` with the never-serialized models.

Usage::

   python examples/streaming_scoring.py
"""

from __future__ import annotations

import tempfile
from collections import Counter
from pathlib import Path

from repro import (
    CharacterizationPipeline,
    FleetConfig,
    StreamScorer,
    build_bundle,
    load_bundle,
    save_bundle,
    simulate_fleet,
)
from repro.core.monitor import AlertLevel, DegradationMonitor
from repro.core.prediction import DegradationPredictor
from repro.serve.scorer import MonitorVerdict


def score(scorer: StreamScorer, profile):
    """One drive's samples, in hour order, scored as one block."""
    return scorer.score_block([profile.serial] * len(profile),
                              profile.hours, profile.matrix)


def main() -> None:
    print("Training the characterization models...")
    training_fleet = simulate_fleet(FleetConfig(n_drives=2000, seed=71))
    report = CharacterizationPipeline(seed=71).run(training_fleet.dataset)

    bundle_path = Path(tempfile.mkdtemp()) / "fleet.bundle.json"
    save_bundle(build_bundle(report, seed=71), bundle_path)
    size_kib = bundle_path.stat().st_size / 1024
    print(f"Exported the model bundle ({size_kib:.0f} KiB) "
          f"to {bundle_path}")

    # A scoring host loads the artifact; corrupt or stale bundles would
    # raise a typed BundleError here instead of scoring garbage.
    bundle = load_bundle(bundle_path)
    scorer = StreamScorer(bundle)

    print("Scoring a fresh month of telemetry from the bundle...")
    live_fleet = simulate_fleet(FleetConfig(n_drives=500, seed=72))
    levels: Counter[str] = Counter()
    for profile in live_fleet.dataset.profiles:
        verdicts = score(scorer, profile)
        levels.update(verdicts.verdict_at(row).level
                      for row in verdicts.alerting_rows())
    print(f"  {scorer.samples_scored} samples from "
          f"{scorer.drives_tracked} drives: "
          f"{levels[AlertLevel.WATCH.name]} WATCH and "
          f"{levels[AlertLevel.CRITICAL.name]} CRITICAL verdicts")
    critical = scorer.drives_at(AlertLevel.CRITICAL)
    if critical:
        print(f"  drives ending CRITICAL: {', '.join(critical[:5])}"
              + (" ..." if len(critical) > 5 else ""))

    print("Checking byte-identity against offline replay...")
    predictor = DegradationPredictor(seed=71)
    predictor.evaluate_all(report.dataset, report.categorization)
    monitor = DegradationMonitor(predictor, report.dataset.normalizer)
    fresh_scorer = StreamScorer(bundle)
    checked = 0
    for profile in live_fleet.dataset.profiles[:40]:
        offline = [MonitorVerdict.from_alert(alert).to_json_line()
                   for alert in monitor.replay(profile)]
        streamed = score(fresh_scorer, profile).to_json_lines()
        assert streamed == offline, f"divergence on {profile.serial}"
        checked += len(offline)
    print(f"  {checked} verdicts byte-identical across "
          "save -> load -> stream")


if __name__ == "__main__":
    main()
