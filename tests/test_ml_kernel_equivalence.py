"""Golden equivalence tests for the vectorized ML kernels.

The batched rewrites in ``repro.ml`` (SVC connectivity, presort CART,
length-grouped HMM forward/backward, expanded-form k-means distances)
claim bit-level compatibility with the loop-based implementations they
replaced.  These tests hold them to it against the frozen references in
``tests/ml_reference.py``: identical labels, identical tree structure,
identical log-likelihoods — not merely "close".
"""

import numpy as np
import pytest

from tests.ml_reference import (
    ReferenceGaussianHMM,
    ReferenceRegressionTree,
    reference_connectivity_labels,
    reference_kmeans_plus_plus,
    reference_pairwise_sq_distances,
)
from repro.ml.hmm import GaussianHMM
from repro.ml.kmeans import KMeans, _pairwise_sq_distances
from repro.ml.svc import SupportVectorClustering
from repro.ml.tree import RegressionTree


def make_blobs(rng, centers, n_per, scale=0.35):
    points = [center + rng.normal(0.0, scale, size=(n_per, len(center)))
              for center in centers]
    return np.vstack(points)


class TestSVCConnectivityGolden:
    @pytest.mark.parametrize("seed,centers,q", [
        (0, [(0.0, 0.0), (4.0, 4.0)], 1.0),
        (1, [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0)], None),
        (2, [(0.0, 0.0), (3.0, 3.0), (6.0, 0.0), (3.0, -3.0)], 0.8),
    ])
    def test_labels_match_pairwise_reference(self, seed, centers, q):
        rng = np.random.default_rng(seed)
        data = make_blobs(rng, centers, 18)
        model = SupportVectorClustering(gaussian_width=q).fit(data)
        expected = reference_connectivity_labels(model, data)
        assert model.labels_ is not None
        assert np.array_equal(model.labels_, expected)
        assert model.labels_.shape == (data.shape[0],)

    def test_soft_margin_outliers(self):
        rng = np.random.default_rng(7)
        data = make_blobs(rng, [(0.0, 0.0), (4.5, 4.5)], 20)
        data[0] = (2.2, 2.3)  # a stray point between the blobs
        model = SupportVectorClustering(gaussian_width=1.2, soft_margin=0.2).fit(data)
        expected = reference_connectivity_labels(model, data)
        assert np.array_equal(model.labels_, expected)


class TestTreeGolden:
    def assert_same_structure(self, a, b):
        assert a.value == b.value
        assert a.n_samples == b.n_samples
        assert a.sse == b.sse
        assert a.feature_index == b.feature_index
        assert a.threshold == b.threshold
        assert (a.left is None) == (b.left is None)
        if a.left is not None:
            self.assert_same_structure(a.left, b.left)
            self.assert_same_structure(a.right, b.right)

    @pytest.mark.parametrize("seed,quantize", [(0, False), (1, True),
                                               (2, False)])
    def test_structure_matches_resorting_reference(self, seed, quantize):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(600, 6))
        if quantize:  # heavy ties exercise the stable-partition argument
            features = np.round(features * 2.0) / 2.0
        targets = (features[:, 0] * 1.5 - np.abs(features[:, 1])
                   + rng.normal(0.0, 0.2, size=600))
        fast = RegressionTree(max_depth=6).fit(features, targets)
        slow = ReferenceRegressionTree(max_depth=6).fit(features, targets)
        self.assert_same_structure(fast.root_, slow.root_)
        assert fast.n_leaves() == slow.n_leaves()
        probe = rng.normal(size=(200, 6))
        assert np.array_equal(fast.predict(probe), slow.predict(probe))


class TestHMMGolden:
    def make_windows(self, rng, n, lengths, shift):
        return [rng.normal(shift, 1.0, size=(lengths[i % len(lengths)], 3))
                for i in range(n)]

    def test_fit_and_scores_match_sequential_reference(self):
        rng = np.random.default_rng(3)
        windows = self.make_windows(rng, 30, [10, 16, 16, 5], 0.0)
        held_out = self.make_windows(rng, 8, [12, 9], 1.0)

        fast = GaussianHMM(3, seed=5).fit(windows)
        slow = ReferenceGaussianHMM(3, seed=5).fit(windows)
        for attribute in ("start_log_", "transition_log_", "means_",
                          "variances_"):
            assert np.array_equal(getattr(fast, attribute),
                                  getattr(slow, attribute)), attribute
        for window in held_out:
            assert fast.score(window) == slow.score(window)


class TestKMeansEquivalence:
    """The expanded-form distances are a (documented) fp reformulation,
    so distances are compared to tolerance — but cluster assignments on
    separable data must not move."""

    def test_pairwise_distances_close_and_nonnegative(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(300, 30))
        centers = rng.normal(size=(5, 30))
        fast = _pairwise_sq_distances(data, centers)
        slow = reference_pairwise_sq_distances(data, centers)
        assert np.allclose(fast, slow, rtol=1.0e-9, atol=1.0e-9)
        assert np.all(fast >= 0.0)

    def test_seeding_and_labels_match_reference(self):
        rng = np.random.default_rng(4)
        data = make_blobs(rng, [(0.0,) * 8, (6.0,) * 8, (-6.0, 6.0) * 4], 40)
        model = KMeans(3, seed=9).fit(data)
        seeded_fast = model._kmeans_plus_plus(data,
                                              np.random.default_rng(21))
        seeded_slow = reference_kmeans_plus_plus(3, data,
                                                 np.random.default_rng(21))
        assert np.array_equal(seeded_fast, seeded_slow)
        # Ground-truth partition: each blob of 40 lands in one cluster.
        labels = model.labels_.reshape(3, 40)
        assert all(len(set(row.tolist())) == 1 for row in labels)
