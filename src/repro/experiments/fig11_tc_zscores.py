"""Figure 11: temporal z-scores of drive temperature (TC).

The paper: all groups run hotter than good drives (negative z-scores of
the TC health value), and "the temperature of drives in Group 1 is the
highest compared with the other two groups and this persists throughout
the 20-day period" — the evidence for the thermal cause of logical
failures.
"""

from __future__ import annotations

import numpy as np

from repro.core.diagnosis import temporal_group_z_scores
from repro.core.pipeline import CharacterizationReport
from repro.experiments.common import ExperimentResult, default_report
from repro.reporting.figures import ascii_series


def run(report: CharacterizationReport | None = None,
        attribute: str = "TC") -> ExperimentResult:
    """Render Figure 11: temporal z-scores of drive temperature (TC)."""
    report = report if report is not None else default_report()
    by_group = temporal_group_z_scores(
        report.dataset, report.categorization, attribute
    )
    lags = next(iter(by_group.values())).lags_hours.astype(np.float64)
    series = {
        f"group{scores.failure_type.paper_group_number}": scores.z_scores
        for scores in by_group.values()
    }
    means = {
        f"group{scores.failure_type.paper_group_number}": scores.mean_z()
        for scores in by_group.values()
    }
    most_negative = min(means, key=lambda k: means[k])
    rendered = "\n".join([
        ascii_series(
            lags, series, height=14, width=70,
            title=f"Figure 11: temporal z-scores of {attribute} "
                  "(hours before failure)",
        ),
        "",
        "mean z per group: " + ", ".join(
            f"{name}={value:.1f}" for name, value in sorted(means.items())
        ),
        f"most negative (hottest) group: {most_negative} (paper: group1)",
    ])
    return ExperimentResult(
        experiment_id="fig11",
        title="Temporal z-scores of drive temperature",
        paper_reference="all groups negative; Group 1 most negative across "
                        "the 20-day horizon",
        data={"lags": lags, "series": series, "means": means,
              "most_negative": most_negative},
        rendered=rendered,
    )
