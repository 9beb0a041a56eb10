"""Tests for distance measures."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml.distance import (
    MahalanobisDistance,
    euclidean_to_reference,
)


def test_euclidean_to_reference_rowwise():
    matrix = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
    distances = euclidean_to_reference(matrix, np.zeros(2))
    np.testing.assert_allclose(distances, [0.0, 5.0, 10.0])


def test_euclidean_to_reference_validates_shapes():
    with pytest.raises(ModelError):
        euclidean_to_reference(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ModelError):
        euclidean_to_reference(np.zeros(3), np.zeros(3))


class TestMahalanobis:
    def test_whitens_anisotropic_data(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(5000, 2)) * np.array([10.0, 0.1])
        metric = MahalanobisDistance().fit(data)
        # Equal Mahalanobis distance despite wildly different raw scales.
        d_wide = metric.distance([10.0, 0.0], [0.0, 0.0])
        d_narrow = metric.distance([0.0, 0.1], [0.0, 0.0])
        assert d_wide == pytest.approx(d_narrow, rel=0.1)

    def test_matches_euclidean_for_identity_covariance(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(20000, 2))
        metric = MahalanobisDistance().fit(data)
        assert metric.distance([1.0, 1.0], [0.0, 0.0]) == pytest.approx(
            np.sqrt(2.0), rel=0.05
        )

    def test_to_reference_matches_pairwise(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(200, 3))
        metric = MahalanobisDistance().fit(data)
        reference = data[0]
        series = metric.to_reference(data[:5], reference)
        singles = [metric.distance(row, reference) for row in data[:5]]
        np.testing.assert_allclose(series, singles, rtol=1e-9)

    def test_use_before_fit_raises(self):
        with pytest.raises(ModelError):
            MahalanobisDistance().distance([1.0], [2.0])

    def test_singular_covariance_survives_via_ridge(self):
        data = np.column_stack([np.arange(10.0), np.arange(10.0)])
        metric = MahalanobisDistance(ridge=1e-6).fit(data)
        assert np.isfinite(metric.distance(data[0], data[1]))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ModelError):
            MahalanobisDistance().fit(np.zeros((1, 3)))
