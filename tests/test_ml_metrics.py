"""Tests for evaluation metrics."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml.metrics import (
    cluster_purity,
    detection_rates,
    error_rate,
    r_squared,
    rmse,
)


def test_rmse_basic():
    assert rmse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert rmse(np.zeros(4), np.full(4, 2.0)) == pytest.approx(2.0)


def test_error_rate_is_papers_rmse_over_range():
    actual = np.array([-1.0, 0.0, 1.0])
    predicted = actual + 0.2
    # Range of targets is 2: the paper's Table III convention.
    assert error_rate(actual, predicted, target_range=2.0) == pytest.approx(0.1)


def test_error_rate_infers_range():
    actual = np.array([0.0, 4.0])
    predicted = np.array([1.0, 3.0])
    assert error_rate(actual, predicted) == pytest.approx(1.0 / 4.0)


def test_error_rate_rejects_degenerate_range():
    with pytest.raises(ModelError):
        error_rate(np.ones(3), np.ones(3))


def test_r_squared_perfect_and_mean_predictor():
    y = np.array([1.0, 2.0, 3.0])
    assert r_squared(y, y) == 1.0
    assert r_squared(y, np.full(3, 2.0)) == pytest.approx(0.0)


def test_detection_rates():
    is_failed = np.array([True, True, False, False, False])
    flagged = np.array([True, False, True, False, False])
    rates = detection_rates(is_failed, flagged)
    assert rates.fdr == pytest.approx(0.5)
    assert rates.far == pytest.approx(1.0 / 3.0)


def test_detection_rates_need_both_classes():
    with pytest.raises(ModelError):
        detection_rates(np.array([True, True]), np.array([True, False]))


def test_cluster_purity():
    labels = np.array([0, 0, 0, 1, 1])
    truth = np.array(["a", "a", "b", "c", "c"])
    assert cluster_purity(labels, truth) == pytest.approx(4 / 5)


def test_shape_validation():
    with pytest.raises(ModelError):
        rmse(np.zeros(3), np.zeros(4))
    with pytest.raises(ModelError):
        cluster_purity(np.zeros(3), np.zeros(4))
