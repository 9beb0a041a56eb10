"""Polynomial regression with the goodness-of-fit measures of Figure 8.

The paper fits degradation curves with free polynomial models of order 1
to 3 (reporting R-squared) and then compares constrained canonical forms
by RMSE.  :func:`fit_polynomial` covers the free fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError


@dataclass(frozen=True, slots=True)
class PolynomialFit:
    """A fitted polynomial with its goodness-of-fit statistics.

    ``coefficients`` are in descending-power order, as produced by
    :func:`numpy.polyfit`.
    """

    order: int
    coefficients: tuple[float, ...]
    r_squared: float
    rmse: float

    def predict(self, t: np.ndarray | float) -> np.ndarray | float:
        values = np.polyval(np.asarray(self.coefficients), t)
        return float(values) if np.isscalar(t) else values


def fit_polynomial(t: np.ndarray, y: np.ndarray, order: int) -> PolynomialFit:
    """Least-squares polynomial fit of ``y`` against ``t``."""
    t = np.asarray(t, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if t.shape != y.shape or t.ndim != 1:
        raise ModelError("fit_polynomial expects matching 1-D arrays")
    if order < 1:
        raise ModelError("polynomial order must be at least 1")
    if t.shape[0] <= order:
        raise ModelError(
            f"need more than {order} points to fit an order-{order} polynomial"
        )
    coefficients = np.polyfit(t, y, order)
    predictions = np.polyval(coefficients, t)
    return PolynomialFit(
        order=order,
        coefficients=tuple(float(c) for c in coefficients),
        r_squared=_r_squared(y, predictions),
        rmse=_rmse(y, predictions),
    )


def fit_polynomial_family(t: np.ndarray, y: np.ndarray,
                          max_order: int = 3) -> list[PolynomialFit]:
    """Fit orders 1..``max_order``, as in the paper's Figure 8 panels."""
    return [fit_polynomial(t, y, order) for order in range(1, max_order + 1)]


def _rmse(actual: np.ndarray, predicted: np.ndarray) -> float:
    return float(np.sqrt(np.mean((actual - predicted) ** 2)))


def _r_squared(actual: np.ndarray, predicted: np.ndarray) -> float:
    residual = float(np.sum((actual - predicted) ** 2))
    total = float(np.sum((actual - actual.mean()) ** 2))
    if total == 0.0:
        return 1.0 if residual == 0.0 else 0.0
    return 1.0 - residual / total
