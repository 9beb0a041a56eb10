"""Failure-rate statistics: AFR and Weibull failure-time fits.

The paper's related work (Section II-B) frames disk reliability in
annual(ized) failure/replacement rates — Schroeder & Gibson's "typically
exceeded 1%, with 2-4% common and up to 13%", Gray's 3-6%, the Internet
Archive's 2-6% — and cites Xin et al. on infant mortality.  This module
provides the standard quantities for placing a fleet in that context:

* the annualized failure rate implied by an observation period,
* a Weibull fit of the failure times (shape < 1 = infant-mortality-
  dominated hazard, shape ~ 1 = constant hazard, shape > 1 = wear-out).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from repro.errors import ReproError

#: Hours per year used by the AFR convention (365.25 days).
HOURS_PER_YEAR = 8766.0


def annualized_failure_rate(n_failed: int, n_drives: int,
                            period_hours: float) -> float:
    """AFR: failures per drive-year of exposure.

    Surviving drives contribute the full period of exposure; failed
    drives are (conservatively, and conventionally) also counted at the
    full period, matching how the cited field studies report replacement
    rates.
    """
    if n_drives <= 0 or n_failed < 0 or n_failed > n_drives:
        raise ReproError("inconsistent drive counts")
    if period_hours <= 0:
        raise ReproError("period_hours must be positive")
    drive_years = n_drives * period_hours / HOURS_PER_YEAR
    return n_failed / drive_years


@dataclass(frozen=True, slots=True)
class WeibullFit:
    """Maximum-likelihood Weibull fit of failure times."""

    shape: float
    scale: float
    n_samples: int

    @property
    def hazard_is_decreasing(self) -> bool:
        """Shape < 1: infant-mortality-dominated hazard."""
        return self.shape < 1.0

    @property
    def hazard_is_increasing(self) -> bool:
        """Shape > 1: wear-out-dominated hazard."""
        return self.shape > 1.0

    def hazard(self, t: np.ndarray | float) -> np.ndarray | float:
        """Instantaneous failure rate at time t."""
        t = np.asarray(t, dtype=np.float64)
        value = (self.shape / self.scale
                 * (np.maximum(t, 1.0e-12) / self.scale) ** (self.shape - 1.0))
        return float(value) if value.ndim == 0 else value


def fit_weibull(failure_hours: np.ndarray) -> WeibullFit:
    """MLE Weibull fit (location pinned at zero) of failure times."""
    failure_hours = np.asarray(failure_hours, dtype=np.float64).ravel()
    if failure_hours.shape[0] < 3:
        raise ReproError("need at least three failure times to fit")
    if np.any(failure_hours <= 0):
        raise ReproError("failure times must be positive")
    shape, _, scale = stats.weibull_min.fit(failure_hours, floc=0.0)
    return WeibullFit(shape=float(shape), scale=float(scale),
                      n_samples=failure_hours.shape[0])
