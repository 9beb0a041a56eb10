"""Tests for correlation measures."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.stats.correlation import pearson, spearman


def test_perfect_positive_and_negative():
    t = np.arange(10.0)
    assert pearson(t, 2 * t + 1) == pytest.approx(1.0)
    assert pearson(t, -t) == pytest.approx(-1.0)


def test_constant_series_yield_zero():
    t = np.arange(10.0)
    assert pearson(np.full(10, 3.0), t) == 0.0
    assert spearman(t, np.full(10, 3.0)) == 0.0


def test_spearman_captures_monotone_nonlinear():
    t = np.arange(1.0, 20.0)
    y = np.exp(t)  # monotone but very nonlinear
    assert spearman(t, y) == pytest.approx(1.0)
    assert pearson(t, y) < 1.0


def test_independent_noise_weakly_correlated(rng):
    a = rng.normal(size=2000)
    b = rng.normal(size=2000)
    assert abs(pearson(a, b)) < 0.1


def test_length_mismatch_rejected():
    with pytest.raises(ReproError):
        pearson(np.arange(3.0), np.arange(4.0))


def test_too_short_series_rejected():
    with pytest.raises(ReproError):
        pearson(np.array([1.0]), np.array([2.0]))
