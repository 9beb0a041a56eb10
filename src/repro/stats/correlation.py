"""Correlation measures used by the attribute-influence analysis.

Figure 9 correlates the read/write attributes with the degradation value
inside each group's window; Figure 10 correlates the environmental
attributes with the dominant read/write attributes over three horizons.
Pearson correlation is the workhorse; Spearman is provided for the
robustness ablation.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from repro.errors import ReproError


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation; 0.0 when either series is constant.

    Constant series carry no correlation information (the covariance is
    identically zero), so returning 0 rather than NaN keeps attribute
    sweeps well-defined when an attribute is frozen inside a window.
    """
    a, b = _aligned(a, b)
    if np.all(a == a[0]) or np.all(b == b[0]):
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation; 0.0 when either series is constant."""
    a, b = _aligned(a, b)
    if np.all(a == a[0]) or np.all(b == b[0]):
        return 0.0
    rho, _ = stats.spearmanr(a, b)
    return float(rho)


def _aligned(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ReproError("correlation inputs must have equal length")
    if a.shape[0] < 2:
        raise ReproError("correlation needs at least two observations")
    return a, b
