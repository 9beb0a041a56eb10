"""Micro-benchmarks of the ML substrate.

Not paper artifacts — these pin the performance of the hot algorithms so
regressions (e.g. de-vectorizing tree prediction) show up next to the
reproduction benches.

``test_perf_ml_recorded`` additionally measures the batched kernels
against the frozen loop references in ``tests/ml_reference.py`` and
writes the speedups to ``benchmarks/output/perf_ml.json`` — the file
``scripts/compare_bench.py`` diffs against, and the table quoted by
``docs/performance.md``.
"""

import time

import numpy as np
import pytest

from conftest import bench_environment
from repro.core.serialize import canonical_json_dumps
from tests.ml_reference import (
    ReferenceGaussianHMM,
    ReferenceRegressionTree,
    reference_connectivity_labels,
    reference_pairwise_sq_distances,
)
from repro.ml.hmm import GaussianHMM
from repro.ml.kmeans import KMeans, _pairwise_sq_distances
from repro.ml.svc import SupportVectorClustering
from repro.ml.tree import RegressionTree


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


def test_kmeans_500x30(benchmark, rng):
    data = rng.normal(size=(500, 30))
    result = benchmark.pedantic(
        lambda: KMeans(3, seed=0).fit(data), rounds=3, iterations=1
    )
    assert result.inertia_ is not None


def test_tree_fit_50k_samples(benchmark, rng):
    features = rng.uniform(size=(50_000, 12))
    targets = np.where(features[:, 0] < 0.5, -1.0, 1.0)
    tree = benchmark.pedantic(
        lambda: RegressionTree(max_depth=8).fit(features, targets),
        rounds=3, iterations=1,
    )
    assert tree.n_leaves() >= 2


def test_tree_predict_100k_rows(benchmark, rng):
    features = rng.uniform(size=(20_000, 12))
    targets = rng.uniform(size=20_000)
    tree = RegressionTree(max_depth=8).fit(features, targets)
    probe = rng.uniform(size=(100_000, 12))
    predictions = benchmark.pedantic(
        lambda: tree.predict(probe), rounds=3, iterations=1
    )
    assert predictions.shape == (100_000,)


def test_svc_150_points(benchmark, rng):
    data = np.vstack([
        rng.normal((0, 0), 0.2, size=(75, 2)),
        rng.normal((4, 4), 0.2, size=(75, 2)),
    ])
    model = benchmark.pedantic(
        lambda: SupportVectorClustering(gaussian_width=2.0).fit(data),
        rounds=1, iterations=1,
    )
    assert model.n_clusters_ == 2


def test_hmm_fit_20x48x8(benchmark, rng):
    sequences = [rng.normal(size=(48, 8)) for _ in range(20)]
    model = benchmark.pedantic(
        lambda: GaussianHMM(n_states=3, n_iter=15, seed=1).fit(sequences),
        rounds=1, iterations=1,
    )
    assert model.is_fitted


def test_svc_connectivity_500_points(benchmark, rng):
    """The batched connectivity labeling alone, at the acceptance size."""
    data = np.vstack([
        rng.normal((0, 0), 0.45, size=(250, 2)),
        rng.normal((4, 4), 0.45, size=(250, 2)),
    ])
    model = SupportVectorClustering(gaussian_width=1.0).fit(data)
    labels = benchmark.pedantic(
        lambda: model._label_by_connectivity(data, model.beta_),
        rounds=3, iterations=1,
    )
    assert np.array_equal(labels, model.labels_)


# -- recorded before/after speedups ------------------------------------------

def _best_of(fn, repeat=3):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.mark.tier2
def test_perf_ml_recorded(artifact_dir):
    """Measure the batched ML kernels against their loop references.

    Every comparison requires identical outputs before the timing
    counts, so the recorded speedups are algorithm-for-algorithm.  The
    SVC connectivity acceptance bar (>= 5x at n=500) is asserted here;
    the other speedups are recorded and guarded against regression by
    ``scripts/compare_bench.py``.
    """
    rng = np.random.default_rng(0)

    # 1) SVC connectivity at n=500: batched pair blocks + midpoint
    #    screen vs the per-pair double loop.
    svc_data = np.vstack([
        rng.normal((0, 0), 0.45, size=(250, 2)),
        rng.normal((4, 4), 0.45, size=(250, 2)),
    ])
    svc = SupportVectorClustering(gaussian_width=1.0).fit(svc_data)
    reference_labels = reference_connectivity_labels(svc, svc_data)
    assert np.array_equal(svc.labels_, reference_labels)
    svc_loop_s = _best_of(
        lambda: reference_connectivity_labels(svc, svc_data), repeat=2)
    svc_batched_s = _best_of(
        lambda: svc._label_by_connectivity(svc_data, svc.beta_), repeat=3)
    svc_speedup = svc_loop_s / svc_batched_s
    assert svc_speedup >= 5.0

    # 2) HMM Baum-Welch: length-grouped batched forward/backward vs the
    #    one-sequence-at-a-time reference (byte-identical parameters).
    windows = [rng.normal(size=(24, 4)) for _ in range(150)]
    fast_hmm = GaussianHMM(3, n_iter=5, tol=0.0, seed=1)
    slow_hmm = ReferenceGaussianHMM(3, n_iter=5, tol=0.0, seed=1)
    fast_hmm.fit(windows)
    slow_hmm.fit(windows)
    assert np.array_equal(fast_hmm.means_, slow_hmm.means_)
    assert np.array_equal(fast_hmm.transition_log_, slow_hmm.transition_log_)
    hmm_loop_s = _best_of(
        lambda: ReferenceGaussianHMM(3, n_iter=5, tol=0.0, seed=1)
        .fit(windows), repeat=2)
    hmm_batched_s = _best_of(
        lambda: GaussianHMM(3, n_iter=5, tol=0.0, seed=1).fit(windows),
        repeat=3)
    hmm_speedup = hmm_loop_s / hmm_batched_s
    assert hmm_speedup >= 3.0

    # 3) Presort CART vs the re-argsorting grower (identical trees).
    tree_features = rng.uniform(size=(50_000, 12))
    tree_targets = (np.where(tree_features[:, 0] < 0.5, -1.0, 1.0)
                    + rng.normal(0.0, 0.1, size=50_000))
    fast_tree = RegressionTree(max_depth=8).fit(tree_features, tree_targets)
    slow_tree = ReferenceRegressionTree(max_depth=8).fit(tree_features,
                                                         tree_targets)
    assert fast_tree.n_leaves() == slow_tree.n_leaves()
    probe = rng.uniform(size=(2_000, 12))
    assert np.array_equal(fast_tree.predict(probe), slow_tree.predict(probe))
    tree_resort_s = _best_of(
        lambda: ReferenceRegressionTree(max_depth=8)
        .fit(tree_features, tree_targets), repeat=2)
    tree_presort_s = _best_of(
        lambda: RegressionTree(max_depth=8)
        .fit(tree_features, tree_targets), repeat=3)
    tree_speedup = tree_resort_s / tree_presort_s
    assert tree_speedup >= 1.2

    # 4) K-means distance kernel: expanded-form GEMM vs the difference
    #    tensor (equal to fp tolerance; assignments pinned elsewhere).
    km_data = rng.normal(size=(4_000, 30))
    km_centers = rng.normal(size=(10, 30))
    assert np.allclose(_pairwise_sq_distances(km_data, km_centers),
                       reference_pairwise_sq_distances(km_data, km_centers))
    km_loop_s = _best_of(
        lambda: [reference_pairwise_sq_distances(km_data, km_centers)
                 for _ in range(20)])
    km_gemm_s = _best_of(
        lambda: [_pairwise_sq_distances(km_data, km_centers)
                 for _ in range(20)])
    km_speedup = km_loop_s / km_gemm_s

    payload = {
        "recorded_by": "benchmarks/test_ml_microbench.py"
                       "::test_perf_ml_recorded",
        "environment": bench_environment(),
        "svc_connectivity_n500": {
            "pairwise_loop_s": svc_loop_s,
            "batched_s": svc_batched_s,
            "speedup": svc_speedup,
            "identical_labels": True,
        },
        "hmm_baum_welch_150x24x4": {
            "sequential_s": hmm_loop_s,
            "batched_s": hmm_batched_s,
            "speedup": hmm_speedup,
            "identical_parameters": True,
        },
        "tree_fit_50kx12": {
            "resorting_s": tree_resort_s,
            "presorted_s": tree_presort_s,
            "speedup": tree_speedup,
            "identical_structure": True,
        },
        "kmeans_distances_4000x30x10": {
            "difference_tensor_s": km_loop_s,
            "expanded_gemm_s": km_gemm_s,
            "speedup": km_speedup,
            "note": "fp reformulation; equality to tolerance only",
        },
    }
    path = artifact_dir / "perf_ml.json"
    path.write_text(canonical_json_dumps(payload) + "\n")
