"""Z-score diagnosis of failure causes (Section V-A).

With failure groups in hand, the paper pinpoints likely causes by
comparing each group's attribute values against the good-drive
population over the 20-day pre-failure timeline (Figures 11 and 12):
high drive temperature singles out the logical-failure group, and
power-on-hours extremes single out the head-failure group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.categorize import CategorizationResult
from repro.core.taxonomy import FailureType
from repro.data.dataset import DiskDataset
from repro.errors import ReproError
from repro.stats.zscore import temporal_z_scores


@dataclass(frozen=True, slots=True)
class GroupZScores:
    """Temporal z-scores of one attribute for one failure group."""

    failure_type: FailureType
    attribute: str
    lags_hours: np.ndarray
    z_scores: np.ndarray

    def mean_z(self) -> float:
        """Mean z-score over the timeline (ignoring undefined lags)."""
        finite = self.z_scores[np.isfinite(self.z_scores)]
        if finite.shape[0] == 0:
            raise ReproError("no defined z-scores on the timeline")
        return float(finite.mean())


def temporal_group_z_scores(dataset: DiskDataset,
                            categorization: CategorizationResult,
                            attribute: str, *,
                            max_lag_hours: int = 480,
                            step_hours: int = 8) -> dict[FailureType, GroupZScores]:
    """Figure 11/12: per-group temporal z-scores of ``attribute``.

    At each lag before failure, the failure-group records observed at
    that lag are compared against all good-drive records of the
    attribute via Eq. (7).
    """
    good_values = np.concatenate(
        [profile.column(attribute) for profile in dataset.good_profiles]
    )
    if good_values.shape[0] < 2:
        raise ReproError("need good-drive records for the z-score baseline")

    results: dict[FailureType, GroupZScores] = {}
    for failure_type in FailureType:
        serials = categorization.serials_of_type(failure_type)
        profiles = [dataset.get(serial) for serial in serials]
        if not profiles:
            continue
        lags, z_scores = temporal_z_scores(
            profiles, good_values, attribute,
            max_lag_hours=max_lag_hours, step_hours=step_hours,
        )
        results[failure_type] = GroupZScores(
            failure_type=failure_type,
            attribute=attribute,
            lags_hours=lags,
            z_scores=z_scores,
        )
    return results
