"""Distribution summaries: box-chart statistics and deciles.

Figure 2 of the paper shows box charts of the twelve normalized
attributes over the failure records; Figure 6 compares attribute
distributions between good records and each failure group using "deciles
of the cumulative distribution ... the first nine deciles to avoid the
skew of outliers".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError


@dataclass(frozen=True, slots=True)
class BoxSummary:
    """Tukey box-chart statistics of one sample."""

    minimum: float
    lower_whisker: float
    first_quartile: float
    median: float
    third_quartile: float
    upper_whisker: float
    maximum: float
    n_outliers: int

    @property
    def spread(self) -> float:
        """Whisker-to-whisker spread: the paper's notion of "variation"."""
        return self.upper_whisker - self.lower_whisker


def box_summary(values: np.ndarray, *, whisker: float = 1.5) -> BoxSummary:
    """Compute box-chart statistics with Tukey whiskers.

    Whiskers extend to the most extreme values within ``whisker`` IQRs of
    the quartiles; values beyond are counted as outliers.
    """
    values = _clean(values)
    q1, q2, q3 = np.percentile(values, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    low_fence = q1 - whisker * iqr
    high_fence = q3 + whisker * iqr
    inside = values[(values >= low_fence) & (values <= high_fence)]
    # With a degenerate IQR every equal value is "inside"; guard anyway.
    if inside.shape[0] == 0:
        inside = values
    return BoxSummary(
        minimum=float(values.min()),
        # Whiskers are clamped to the box so sparse samples cannot place
        # a whisker inside the interquartile range.
        lower_whisker=float(min(inside.min(), q1)),
        first_quartile=float(q1),
        median=float(q2),
        third_quartile=float(q3),
        upper_whisker=float(max(inside.max(), q3)),
        maximum=float(values.max()),
        n_outliers=int(values.shape[0] - inside.shape[0]),
    )


def deciles(values: np.ndarray, *, count: int = 9) -> np.ndarray:
    """Return the first ``count`` deciles of the sample (paper default 9).

    The paper displays deciles 1..9 — dropping the extremes — because
    quantiles "are more robust ... to outliers and noise" than the full
    CDF.
    """
    values = _clean(values)
    if not 1 <= count <= 9:
        raise ReproError("decile count must lie in 1..9")
    quantiles = np.arange(1, count + 1) * 10.0
    return np.percentile(values, quantiles)


def _clean(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.shape[0] == 0:
        raise ReproError("cannot summarize an empty sample")
    if not np.all(np.isfinite(values)):
        raise ReproError("sample contains non-finite values")
    return values
