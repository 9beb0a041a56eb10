"""Online monitoring: stream SMART records through the middleware.

The paper's future work plans "a middleware software that will enhance
storage reliability" on top of the degradation signatures.  This example
runs that middleware's verdict kernel
(:class:`repro.core.DegradationMonitor`), which scores each record on
its own and keeps no per-drive state — the example itself remembers
each drive's first WATCH and CRITICAL hour:

1. characterize a training fleet and train the per-group predictors;
2. simulate a *second* month of operation (a fresh fleet with the same
   configuration but a different seed — drives the models never saw);
3. stream every drive's hourly records through the monitor and report
   when each failing drive first reached WATCH and CRITICAL, i.e. how
   much warning the operator would have had.

Usage::

   python examples/online_monitor.py
"""

from __future__ import annotations

import numpy as np

from repro import CharacterizationPipeline, FleetConfig, simulate_fleet
from repro.core.monitor import AlertLevel, DegradationMonitor
from repro.core.prediction import DegradationPredictor


def main() -> None:
    print("Training the degradation models on a characterization fleet...")
    training_fleet = simulate_fleet(FleetConfig(n_drives=2000, seed=71))
    report = CharacterizationPipeline(run_prediction=False, seed=71).run(
        training_fleet.dataset
    )
    predictor = DegradationPredictor(seed=71)
    predictor.evaluate_all(report.dataset, report.categorization)
    monitor = DegradationMonitor(
        predictor, training_fleet.dataset.fit_normalizer()
    )

    print("Streaming a fresh month of telemetry through the monitor...")
    live_fleet = simulate_fleet(FleetConfig(n_drives=1000, seed=72))

    warnings = []
    false_alarms = 0
    for profile in live_fleet.dataset.profiles:
        first_watch = None
        first_critical = None
        for alert in monitor.replay(profile):
            if first_watch is None and alert.level >= AlertLevel.WATCH:
                first_watch = alert.hour
            if first_critical is None and alert.level is AlertLevel.CRITICAL:
                first_critical = alert.hour
        if profile.failed:
            failure_hour = profile.failure_hour
            watch_lead = (failure_hour - first_watch
                          if first_watch is not None else None)
            critical_lead = (failure_hour - first_critical
                             if first_critical is not None else None)
            warnings.append((profile.serial, watch_lead, critical_lead))
        elif first_watch is not None:
            false_alarms += 1

    n_good = len(live_fleet.dataset.good_profiles)
    print(f"\n{len(warnings)} failing drives, {n_good} good drives, "
          f"{false_alarms} good drives ever raised WATCH "
          f"({false_alarms / n_good:.2%} false-alarm rate)")

    detected = [w for w in warnings if w[1] is not None]
    print(f"{len(detected)}/{len(warnings)} failing drives raised WATCH "
          f"before failing")
    leads = np.array([w[1] for w in detected], dtype=np.float64)
    if leads.shape[0]:
        print(f"warning lead time: median {np.median(leads):.0f} h, "
              f"p10 {np.percentile(leads, 10):.0f} h, "
              f"p90 {np.percentile(leads, 90):.0f} h")

    print("\nFirst alerts per drive (sample):")
    for serial, watch_lead, critical_lead in warnings[:10]:
        watch_text = f"{watch_lead:.0f} h" if watch_lead is not None else "-"
        critical_text = (f"{critical_lead:.0f} h"
                         if critical_lead is not None else "-")
        print(f"  {serial:26s} WATCH {watch_text:>8s} before failure, "
              f"CRITICAL {critical_text:>8s} before failure")


if __name__ == "__main__":
    main()
