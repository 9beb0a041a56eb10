"""Substrate benchmarks: fleet simulation and the end-to-end pipeline.

Not a paper artifact — these time the two heavyweight stages so
performance regressions in the simulator or the analysis pipeline are
visible alongside the reproduction benches.  The instrumented pipeline
bench runs with a live observer so its per-stage span timings land in
``benchmarks/output/telemetry.json``.

``test_perf_baseline_recorded`` additionally measures the performance
layer (vectorized signature math and the dataset cache) against
reference implementations and records the
numbers in ``benchmarks/output/perf_baseline.json`` — the table quoted
by ``docs/performance.md``.
"""

import tempfile
import time

import numpy as np
import pytest

from conftest import bench_environment
from repro.core.pipeline import CharacterizationPipeline
from repro.core.serialize import canonical_json_dumps
from repro.core.signatures import (
    WindowParams,
    distance_to_failure,
    extract_degradation_window,
)
from repro.data.cache import DatasetCache
from repro.sim.config import FleetConfig
from repro.sim.fleet import simulate_fleet


@pytest.mark.tier2
def test_simulate_fleet_1000_drives(benchmark):
    config = FleetConfig(n_drives=1000, seed=13)
    result = benchmark.pedantic(simulate_fleet, args=(config,),
                                rounds=3, iterations=1)
    assert len(result.dataset) == 1000


@pytest.mark.tier2
def test_full_pipeline_1000_drives(benchmark):
    fleet = simulate_fleet(FleetConfig(n_drives=1000, seed=13))

    def run_pipeline():
        return CharacterizationPipeline(seed=13).run(fleet.dataset)

    report = benchmark.pedantic(run_pipeline, rounds=1, iterations=1)
    assert report.categorization.n_groups == 3


@pytest.mark.tier2
def test_full_pipeline_1000_drives_instrumented(benchmark, bench_observer):
    """Same pipeline with live telemetry — quantifies observer overhead
    and feeds per-stage timings into the session telemetry artifact."""
    fleet = simulate_fleet(FleetConfig(n_drives=1000, seed=13))

    def run_pipeline():
        return CharacterizationPipeline(
            seed=13, observer=bench_observer
        ).run(fleet.dataset)

    report = benchmark.pedantic(run_pipeline, rounds=1, iterations=1)
    assert report.categorization.n_groups == 3
    assert bench_observer.tracer.find("cluster") is not None


# -- performance-layer baseline ---------------------------------------------

_PARAMS = WindowParams()


def _loop_distance(profile):
    """Per-record reference for the vectorized distance series."""
    reference = profile.failure_record()
    out = np.empty(len(profile))
    for index, row in enumerate(profile.matrix):
        delta = row - reference
        out[index] = np.sqrt(float(np.dot(delta, delta)))
    return out


def _loop_ratchet_scan(distances, params):
    """Per-record reference for the vectorized ratchet scan."""
    from scipy.signal import medfilt

    reversed_series = distances[::-1]
    filtered = medfilt(reversed_series, 3) \
        if reversed_series.shape[0] >= 3 else reversed_series
    running_max = filtered[0]
    accepted = reversed_series.shape[0] - 1
    for index in range(1, filtered.shape[0]):
        if filtered[index] < running_max - params.dip_tolerance:
            accepted = index
            break
        running_max = max(running_max, float(filtered[index]))
    return accepted


def _best_of(fn, repeat=3):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.mark.tier2
def test_perf_baseline_recorded(artifact_dir):
    """Measure the performance layer and record the honest numbers.

    Two comparisons: the vectorized signature math against a
    per-record reference loop, and a cached pipeline re-run against the
    cold run.
    """
    fleet = simulate_fleet(FleetConfig(n_drives=1000, seed=13))
    normalized = fleet.dataset.normalize()
    failed = normalized.failed_profiles
    assert failed

    # 1) vectorized signature math vs the per-record loop.
    rounds = 20

    def loop_math():
        for profile in failed:
            distances = _loop_distance(profile)
            _loop_ratchet_scan(distances, _PARAMS)

    def vector_math():
        for profile in failed:
            distances = distance_to_failure(profile)
            extract_degradation_window(distances, _PARAMS,
                                       hours=profile.hours)

    loop_s = _best_of(lambda: [loop_math() for _ in range(rounds)])
    vector_s = _best_of(lambda: [vector_math() for _ in range(rounds)])
    vector_speedup = loop_s / vector_s
    # The vectorization is the hardware-independent part of the win;
    # it must clear 2x on any machine (in practice it is far higher,
    # even though the vectorized path also does the plateau trim the
    # loop reference omits).
    assert vector_speedup >= 2.0

    # 2) dataset cache: cold vs warm pipeline run (prediction off, so
    # the prepare stage the cache accelerates dominates the run).
    with tempfile.TemporaryDirectory() as cache_home:
        cache = DatasetCache(cache_home)
        pipeline = CharacterizationPipeline(seed=13, run_prediction=False,
                                            cache=cache)
        cold_start = time.perf_counter()
        pipeline.run(fleet.dataset)
        cold_s = time.perf_counter() - cold_start
        assert cache.misses == 1
        warm_start = time.perf_counter()
        pipeline.run(fleet.dataset)
        warm_s = time.perf_counter() - warm_start
        assert cache.hits == 1
    assert warm_s < cold_s

    payload = {
        "recorded_by": "benchmarks/test_pipeline_end_to_end.py"
                       "::test_perf_baseline_recorded",
        "fleet": {"n_drives": 1000, "seed": 13, "n_failed": len(failed)},
        "environment": bench_environment(),
        "signature_math_vectorization": {
            "per_record_loop_s": loop_s,
            "vectorized_s": vector_s,
            "speedup": vector_speedup,
            "rounds": rounds,
        },
        "dataset_cache": {
            "cold_s": cold_s,
            "warm_s": warm_s,
            "speedup": cold_s / warm_s,
            "scope": "pipeline with run_prediction=False",
        },
    }
    path = artifact_dir / "perf_baseline.json"
    path.write_text(canonical_json_dumps(payload) + "\n")
