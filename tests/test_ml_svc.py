"""Tests for Support Vector Clustering."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml.kmeans import KMeans
from repro.ml.metrics import cluster_purity
from repro.ml.svc import SupportVectorClustering


def blobs(rng, centers, n_per=25, spread=0.15):
    points = []
    labels = []
    for index, center in enumerate(centers):
        points.append(rng.normal(center, spread, size=(n_per, len(center))))
        labels.extend([index] * n_per)
    return np.vstack(points), np.array(labels)


def test_separates_two_blobs(rng):
    data, truth = blobs(rng, [(0.0, 0.0), (4.0, 4.0)])
    model = SupportVectorClustering(gaussian_width=2.0).fit(data)
    assert model.n_clusters_ == 2
    assert cluster_purity(model.labels_, truth) == 1.0


def test_separates_three_blobs(rng):
    data, truth = blobs(rng, [(0.0, 0.0), (4.0, 4.0), (-4.0, 4.0)])
    model = SupportVectorClustering(gaussian_width=2.0).fit(data)
    assert model.n_clusters_ == 3
    assert cluster_purity(model.labels_, truth) == 1.0


def test_agrees_with_kmeans_on_separable_data(rng):
    data, _ = blobs(rng, [(0.0, 0.0), (5.0, 5.0), (-5.0, 5.0)])
    svc_labels = SupportVectorClustering(gaussian_width=1.5).fit(data).labels_
    kmeans_labels = KMeans(3, seed=0).fit(data).labels_
    assert cluster_purity(svc_labels, kmeans_labels) == 1.0
    assert cluster_purity(kmeans_labels, svc_labels) == 1.0


def test_single_blob_yields_single_cluster(rng):
    data, _ = blobs(rng, [(0.0, 0.0)], n_per=40)
    model = SupportVectorClustering().fit(data)
    assert model.n_clusters_ == 1


def test_auto_width_is_finite(rng):
    data, _ = blobs(rng, [(0.0, 0.0), (3.0, 3.0)])
    model = SupportVectorClustering().fit(data)
    assert model.q_ is not None and model.q_ > 0


def test_beta_satisfies_simplex_constraint(rng):
    data, _ = blobs(rng, [(0.0, 0.0), (4.0, 0.0)])
    model = SupportVectorClustering(gaussian_width=2.0).fit(data)
    assert model.beta_.sum() == pytest.approx(1.0)
    assert np.all(model.beta_ >= -1e-12)


def test_sphere_distance_smaller_inside_cluster(rng):
    data, _ = blobs(rng, [(0.0, 0.0)], n_per=50)
    model = SupportVectorClustering(gaussian_width=1.0).fit(data)
    inside = model.sphere_distance_sq(np.array([[0.0, 0.0]]))[0]
    outside = model.sphere_distance_sq(np.array([[30.0, 30.0]]))[0]
    assert inside < outside


def test_invalid_parameters_rejected():
    with pytest.raises(ModelError):
        SupportVectorClustering(gaussian_width=-1.0)
    with pytest.raises(ModelError):
        SupportVectorClustering(soft_margin=1.0)
    with pytest.raises(ModelError):
        SupportVectorClustering(segment_samples=0)


def test_needs_two_samples():
    with pytest.raises(ModelError):
        SupportVectorClustering().fit(np.zeros((1, 2)))
