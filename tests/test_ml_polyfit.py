"""Tests for polynomial regression and model evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.ml.polyfit import (
    fit_polynomial,
    fit_polynomial_family,
)


def test_exact_fit_on_polynomial_data():
    t = np.linspace(0, 10, 20)
    y = 2.0 * t ** 2 - 3.0 * t + 1.0
    fit = fit_polynomial(t, y, 2)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.rmse == pytest.approx(0.0, abs=1e-8)
    np.testing.assert_allclose(fit.coefficients, [2.0, -3.0, 1.0],
                               atol=1e-8)


def test_predict_matches_polyval():
    t = np.linspace(0, 5, 10)
    y = t ** 2
    fit = fit_polynomial(t, y, 2)
    assert fit.predict(3.0) == pytest.approx(9.0, abs=1e-8)


def test_higher_order_never_fits_worse():
    rng = np.random.default_rng(4)
    t = np.linspace(0, 1, 30)
    y = np.sin(3 * t) + rng.normal(0, 0.05, 30)
    fits = fit_polynomial_family(t, y, max_order=3)
    rmses = [fit.rmse for fit in fits]
    assert rmses[0] >= rmses[1] >= rmses[2]


def test_r_squared_between_zero_and_one_for_reasonable_data():
    rng = np.random.default_rng(5)
    t = np.linspace(0, 1, 50)
    y = 2 * t + rng.normal(0, 0.1, 50)
    fit = fit_polynomial(t, y, 1)
    assert 0.9 < fit.r_squared <= 1.0


def test_underdetermined_fit_rejected():
    with pytest.raises(ModelError):
        fit_polynomial(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 2)


def test_invalid_order_rejected():
    with pytest.raises(ModelError):
        fit_polynomial(np.arange(5.0), np.arange(5.0), 0)


def test_mismatched_shapes_rejected():
    with pytest.raises(ModelError):
        fit_polynomial(np.arange(5.0), np.arange(4.0), 1)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-1000, 1000), min_size=4, max_size=30,
                unique=True))
def test_linear_fit_reproduces_line(points):
    # Integer abscissae keep the normal equations well-conditioned; the
    # property under test is exact recovery, not numerical conditioning.
    t = np.array(sorted(points), dtype=np.float64) * 0.1
    y = 3.0 * t - 7.0
    fit = fit_polynomial(t, y, 1)
    np.testing.assert_allclose(fit.coefficients, [3.0, -7.0],
                               rtol=1e-6, atol=1e-6)
