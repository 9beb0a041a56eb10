"""Capstone extension: RAID data-loss risk and signature-driven protection.

Closes the loop on the paper's motivation and implications:

* Section I: "in RAID-5 systems, one drive failure with any other sector
  error will result in data loss";
* Section V: the degradation signatures let operators predict failures
  "even in their early stages" and act before the drive dies.

The experiment measures the data-loss rate of RAID groups drawn from the
simulated fleet under three policies — reactive RAID-5, reactive RAID-6,
and RAID-5 with signature-driven proactive migration (drives are cloned
once the degradation monitor raises WATCH, provided the warning arrives
early enough).  It also reports the median warning lead per failure
group: logical failures, whose degradation window is a few hours, are
the hard case — exactly why the paper steers their mitigation toward
thermal management rather than prediction.
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import CharacterizationReport
from repro.core.taxonomy import FailureType
from repro.experiments.common import ExperimentResult, default_fleet, default_report
from repro.raid.array import RaidLevel
from repro.raid.reliability import (
    RaidReliabilityAnalysis,
    drive_states_from_fleet,
)
from repro.reporting.tables import ascii_table
from repro.serve.bundle import build_bundle
from repro.sim.fleet import FleetResult


def compute_warning_leads(fleet: FleetResult,
                          report: CharacterizationReport, *,
                          seed: int = 17) -> dict[str, float]:
    """Hours of advance warning the degradation models give per failed drive.

    The report's models are frozen into the bundle ``repro-serve``
    ships, and each failed drive's raw profile is scored through that
    bundle's verdict kernel; the warning fires at the first sample the
    monitor raises above HEALTHY (its most pessimistic stage at or
    below the WATCH threshold).
    """
    kernel = build_bundle(report, seed=seed).monitor()
    leads: dict[str, float] = {}
    for profile in fleet.dataset.failed_profiles:
        warned = kernel.observe_columns([profile.serial] * len(profile),
                                        profile.hours,
                                        profile.matrix).alerting_rows()
        if warned.shape[0]:
            first_hour = int(profile.hours[warned[0]])
            leads[profile.serial] = float(profile.failure_hour - first_hour)
    return leads


def run(fleet: FleetResult | None = None,
        report: CharacterizationReport | None = None, *,
        n_groups: int = 20000, seed: int = 99) -> ExperimentResult:
    """Quantify RAID data-loss risk with and without signature-driven protection."""
    fleet = fleet if fleet is not None else default_fleet()
    report = report if report is not None else default_report()
    leads = compute_warning_leads(fleet, report)
    drives = drive_states_from_fleet(fleet, warning_leads=leads)
    analysis = RaidReliabilityAnalysis(drives, n_groups=n_groups, seed=seed)

    policies = [
        analysis.evaluate(RaidLevel.RAID5, proactive=False),
        analysis.evaluate(RaidLevel.RAID6, proactive=False),
        analysis.evaluate(RaidLevel.RAID5, proactive=True),
    ]
    rows = [
        (result.policy, f"{result.loss_rate:.3%}",
         result.n_double_failure_losses, result.n_latent_error_losses,
         result.n_proactive_migrations)
        for result in policies
    ]

    # Warning lead per failure group: the operator's actionable window.
    lead_rows = []
    median_leads = {}
    for failure_type in FailureType:
        group_leads = [
            leads[serial]
            for serial in report.categorization.serials_of_type(failure_type)
            if serial in leads
        ]
        median = float(np.median(group_leads)) if group_leads else 0.0
        median_leads[f"group{failure_type.paper_group_number}"] = median
        lead_rows.append((
            f"group{failure_type.paper_group_number}",
            len(group_leads),
            f"{median:.0f} h",
        ))

    loss_rates = {result.policy: result.loss_rate for result in policies}
    rendered = "\n".join([
        ascii_table(
            ("policy", "data-loss rate", "double-failure", "latent-error",
             "migrations"), rows,
            title=f"RAID protection policies over {n_groups} sampled "
                  "8-drive groups",
        ),
        "",
        ascii_table(
            ("group", "warned drives", "median warning lead"), lead_rows,
            title="Signature warning lead per failure group",
        ),
        "",
        "reactive RAID-5 loses data through exactly the Section I channel "
        "(single failure + latent sector error); RAID-6 and proactive "
        "migration each remove most of it.  Logical failures offer the "
        "least warning — the paper's case for thermal mitigation.",
    ])
    return ExperimentResult(
        experiment_id="raid_protection",
        title="RAID data-loss risk and proactive protection",
        paper_reference="Section I motivation + Section V implications",
        data={
            "loss_rates": loss_rates,
            "median_leads": median_leads,
            "policies": {result.policy: result for result in policies},
        },
        rendered=rendered,
    )
