"""Tests for PCA."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml.pca import PCA


def test_first_component_follows_dominant_direction(rng):
    t = rng.normal(size=300)
    data = np.column_stack([t * 10.0, t * 10.0 + rng.normal(size=300) * 0.1])
    pca = PCA(1).fit(data)
    direction = pca.components_[0]
    expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
    np.testing.assert_allclose(np.abs(direction), expected, atol=0.02)


def test_explained_variance_ratio_sums_to_one_for_full_rank(rng):
    data = rng.normal(size=(100, 4))
    pca = PCA(4).fit(data)
    assert pca.explained_variance_ratio_.sum() == pytest.approx(1.0)


def test_variance_ordering(rng):
    data = rng.normal(size=(200, 5)) * np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    pca = PCA(5).fit(data)
    assert np.all(np.diff(pca.explained_variance_) <= 1e-9)


def test_transform_centers_data(rng):
    data = rng.normal(size=(150, 3)) + 100.0
    projected = PCA(2).fit_transform(data)
    np.testing.assert_allclose(projected.mean(axis=0), [0.0, 0.0],
                               atol=1e-9)


def test_components_are_orthonormal(rng):
    data = rng.normal(size=(120, 6))
    pca = PCA(3).fit(data)
    gram = pca.components_ @ pca.components_.T
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-9)


def test_deterministic_sign_convention(rng):
    data = rng.normal(size=(80, 4))
    a = PCA(2).fit(data)
    b = PCA(2).fit(data.copy())
    np.testing.assert_allclose(a.components_, b.components_)
    for row in a.components_:
        assert row[np.argmax(np.abs(row))] > 0


def test_too_many_components_rejected(rng):
    with pytest.raises(ModelError):
        PCA(5).fit(rng.normal(size=(3, 4)))


def test_use_before_fit_raises():
    with pytest.raises(ModelError):
        PCA(2).transform(np.zeros((2, 2)))
