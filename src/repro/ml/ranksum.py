"""Rank-sum failure detection — the Hughes et al. (2002) baseline.

The multivariate-by-OR rank-sum test: for each monitored attribute, a
Wilcoxon rank-sum test compares a drive's recent samples against a
reference sample drawn from known-good drives; the drive is flagged when
*any* attribute rejects at the configured significance level ("OR-ed
single variate test").  Murray et al. later found this simple detector
the strongest of the classical methods, which is why the paper's related
work leads with it.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from repro.errors import ModelError


class RankSumDetector:
    """OR-ed per-attribute Wilcoxon rank-sum detector.

    Healthy drives differ from a pooled reference for benign, static
    reasons (a drive that has always had a dozen reallocated sectors is
    not failing), and with tens of samples against thousands those
    identity shifts reach astronomical significance.  The detector
    therefore also requires a *material* shift: the drive's median must
    fall outside the reference's extreme quantile band before the
    attribute can vote to flag.

    Parameters
    ----------
    significance:
        Two-sided p-value threshold per attribute.  Lower values cut the
        false alarm rate at the cost of detection rate.
    band_quantile:
        Extreme-quantile band of the reference (per side); a drive's
        median must leave the band for the attribute to count.
    reference_size:
        Number of good-drive samples kept per attribute as the reference.
    """

    def __init__(self, *, significance: float = 1.0e-4,
                 band_quantile: float = 0.001,
                 reference_size: int = 2000, seed: int = 11) -> None:
        if not 0.0 < significance < 1.0:
            raise ModelError("significance must lie in (0, 1)")
        if not 0.0 <= band_quantile < 0.5:
            raise ModelError("band_quantile must lie in [0, 0.5)")
        if reference_size < 10:
            raise ModelError("reference_size must be at least 10")
        self._significance = significance
        self._band_quantile = band_quantile
        self._reference_size = reference_size
        self._seed = seed
        self._reference: np.ndarray | None = None  # (reference_size, n_attrs)
        self._band_low: np.ndarray | None = None
        self._band_high: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        return self._reference is not None

    def fit(self, good_samples: np.ndarray) -> "RankSumDetector":
        """Store a reference sample of good-drive records."""
        good_samples = np.asarray(good_samples, dtype=np.float64)
        if good_samples.ndim != 2:
            raise ModelError("fit expects a 2-D matrix of good samples")
        if good_samples.shape[0] < 10:
            raise ModelError("need at least 10 good samples")
        rng = np.random.default_rng(self._seed)
        count = min(self._reference_size, good_samples.shape[0])
        rows = rng.choice(good_samples.shape[0], size=count, replace=False)
        self._reference = good_samples[rows]
        self._band_low = np.quantile(good_samples, self._band_quantile, axis=0)
        self._band_high = np.quantile(good_samples, 1.0 - self._band_quantile,
                                      axis=0)
        return self

    def attribute_p_values(self, drive_samples: np.ndarray) -> np.ndarray:
        """Two-sided rank-sum p-value per attribute for one drive."""
        if self._reference is None:
            raise ModelError("RankSumDetector used before fit()")
        drive_samples = np.asarray(drive_samples, dtype=np.float64)
        if drive_samples.ndim != 2:
            raise ModelError("expected a 2-D matrix of drive samples")
        if drive_samples.shape[1] != self._reference.shape[1]:
            raise ModelError("attribute count mismatch with the reference")
        p_values = np.empty(drive_samples.shape[1])
        for column in range(drive_samples.shape[1]):
            observed = drive_samples[:, column]
            reference = self._reference[:, column]
            if np.all(observed == observed[0]) and np.all(reference == observed[0]):
                p_values[column] = 1.0
                continue
            _, p_value = stats.ranksums(observed, reference)
            p_values[column] = p_value
        return p_values

    def flag(self, drive_samples: np.ndarray) -> bool:
        """OR-ed decision: flag when any attribute rejects materially."""
        p_values = self.attribute_p_values(drive_samples)
        assert self._band_low is not None and self._band_high is not None
        medians = np.median(np.asarray(drive_samples, dtype=np.float64),
                            axis=0)
        material = (medians < self._band_low) | (medians > self._band_high)
        return bool(np.any((p_values < self._significance) & material))
