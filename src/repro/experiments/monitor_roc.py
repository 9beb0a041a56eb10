"""Extension: operating curve of the degradation-monitor middleware.

The Section VI middleware is only useful if its alert threshold admits a
good detection/false-alarm trade-off on drives it never trained on.
This experiment freezes the models trained on one fleet into the model
bundle ``repro-serve`` ships, scores a *fresh* fleet (different seed)
through that bundle's verdict kernel, and sweeps the WATCH threshold:
for each setting it reports the failed-drive detection rate with at
least 24 hours of lead time and the good-drive false-alarm rate — the
FDR/FAR axes every disk-failure-prediction study uses.
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import CharacterizationPipeline
from repro.experiments.common import ExperimentResult
from repro.reporting.tables import ascii_table
from repro.serve.bundle import build_bundle
from repro.sim.config import FleetConfig
from repro.sim.fleet import simulate_fleet

THRESHOLDS = (-0.02, -0.05, -0.10, -0.20, -0.40)
LEAD_HOURS = 24


def run(*, train_drives: int = 2000, eval_drives: int = 1500,
        seed: int = 71) -> ExperimentResult:
    """Sweep the monitor thresholds into an operating curve."""
    train_fleet = simulate_fleet(FleetConfig(n_drives=train_drives,
                                             seed=seed))
    report = CharacterizationPipeline(run_prediction=False, seed=seed).run(
        train_fleet.dataset
    )
    kernel = build_bundle(report, seed=seed).monitor()
    eval_fleet = simulate_fleet(FleetConfig(n_drives=eval_drives,
                                            seed=seed + 1))

    def min_stage(profile, n_samples: int) -> float:
        """Most pessimistic stage over a drive's first ``n_samples``."""
        block = kernel.observe_columns([profile.serial] * n_samples,
                                       profile.hours[:n_samples],
                                       profile.matrix[:n_samples])
        return float(block.stages.min())

    # Failed drives are scored only up to LEAD_HOURS before the failure
    # (an alert with no lead time rescues nothing).
    failed_stages = np.array([
        min_stage(profile, len(profile) - LEAD_HOURS)
        for profile in eval_fleet.dataset.failed_profiles
        if len(profile) > LEAD_HOURS + 1
    ])
    good_stages = np.array([min_stage(profile, len(profile))
                            for profile in eval_fleet.dataset.good_profiles])

    rows = []
    curve = {}
    for threshold in THRESHOLDS:
        fdr = float(np.mean(failed_stages <= threshold))
        far = float(np.mean(good_stages <= threshold))
        curve[threshold] = {"fdr": fdr, "far": far}
        rows.append((threshold, f"{fdr:.1%}", f"{far:.2%}"))

    rendered = "\n".join([
        ascii_table(
            ("watch threshold", f"FDR (>= {LEAD_HOURS}h lead)", "FAR"),
            rows,
            title="Degradation-monitor operating curve on an unseen fleet",
        ),
        "",
        f"{failed_stages.shape[0]} failed and {good_stages.shape[0]} good "
        "drives scored; tightening the threshold trades detection for "
        "false alarms, exactly as with the classical detectors.",
    ])
    return ExperimentResult(
        experiment_id="monitor_roc",
        title="Monitor middleware operating curve",
        paper_reference="Section VI middleware; FDR/FAR axes of the "
                        "Section II-C literature",
        data={"curve": curve,
              "n_failed": int(failed_stages.shape[0]),
              "n_good": int(good_stages.shape[0])},
        rendered=rendered,
    )
