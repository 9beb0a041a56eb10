"""Serving-layer benchmarks: bundle round trip and scoring throughput.

The cheap tier runs on every invocation and asserts the serving layer's
correctness contracts at bench scale.  ``test_perf_serve_recorded``
additionally measures streaming-scorer throughput — batched
``push_many`` against the per-sample oracle loop
(``DegradationMonitor.observe`` plus ``MonitorVerdict.from_alert``; its
numbers keep the historical ``push_*`` keys), with byte-identical
verdicts asserted before any timing counts — plus warm bundle-load
latency, and writes the numbers to ``benchmarks/output/perf_serve.json``
(the machine-relative ``speedup`` ratios are pinned by
``scripts/compare_bench.py``).
"""

from __future__ import annotations

import time

import pytest

from conftest import bench_environment
from repro.core.serialize import canonical_json_dumps
from repro.serve.bundle import build_bundle, load_bundle, save_bundle
from repro.serve.scorer import StreamScorer
from tests.oracle import oracle_lines, oracle_monitor, oracle_verdicts


def _best_of(fn, repeat=3):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.fixture(scope="module")
def serve_bundle_path(bench_report, artifact_dir, tmp_path_factory):
    bundle = build_bundle(bench_report)
    path = tmp_path_factory.mktemp("serve-bench") / "bench.bundle.json"
    save_bundle(bundle, path)
    return path


@pytest.fixture(scope="module")
def stream_samples(bench_fleet):
    """~200 drives of raw hourly samples, failed drives included."""
    dataset = bench_fleet.dataset
    profiles = (dataset.failed_profiles[:40] + dataset.good_profiles[:160])
    return profiles, [
        (profile.serial, int(hour), row)
        for profile in profiles
        for hour, row in zip(profile.hours, profile.matrix)
    ]


def test_bundle_round_trip_at_bench_scale(serve_bundle_path, bench_report):
    bundle = load_bundle(serve_bundle_path)
    assert bundle.attributes == tuple(bench_report.dataset.attributes)


def test_streamed_verdicts_match_at_bench_scale(serve_bundle_path,
                                                stream_samples):
    _, samples = stream_samples
    bundle = load_bundle(serve_bundle_path)
    batched = StreamScorer(bundle)
    expected = oracle_lines(bundle, samples[:2000])
    actual = [verdict.to_json_line()
              for verdict in batched.push_many(samples[:2000])]
    assert actual == expected


@pytest.mark.tier2
def test_perf_serve_recorded(serve_bundle_path, stream_samples,
                             artifact_dir):
    """Record streaming-scorer throughput and bundle-load latency.

    Byte-identity between the timed paths is asserted before any
    measurement, so the recorded speedup is algorithm-for-algorithm on
    the same verdict stream.
    """
    profiles, samples = stream_samples
    bundle = load_bundle(serve_bundle_path)

    # 1) batched push_many vs the per-sample oracle loop — identical
    #    verdicts first, then best-of timings on fresh scorers.
    check_batched = StreamScorer(bundle)
    batched_lines = [verdict.to_json_line()
                     for verdict in check_batched.push_many(samples)]
    assert batched_lines == oracle_lines(bundle, samples)

    def _push_loop():
        # One fresh monitor per timed run (not per sample — building
        # one rebuilds its trees, which is not what a sample costs).
        return oracle_verdicts(oracle_monitor(bundle), samples)

    push_s = _best_of(_push_loop, repeat=2)
    push_many_s = _best_of(
        lambda: StreamScorer(bundle).push_many(samples), repeat=3)
    batch_speedup = push_s / push_many_s
    assert batch_speedup >= 1.5

    # 2) warm bundle load: artifact in page cache, full verify + decode.
    load_bundle(serve_bundle_path)
    warm_load_s = _best_of(lambda: load_bundle(serve_bundle_path), repeat=5)

    # 3) fleet replay throughput, for samples/sec context: one scorer,
    #    one score_block per profile — the ``repro-serve replay`` loop.
    def _replay():
        scorer = StreamScorer(bundle)
        for profile in profiles:
            scorer.score_block([profile.serial] * len(profile),
                               profile.hours, profile.matrix)

    replay_s = _best_of(_replay, repeat=2)

    payload = {
        "recorded_by": "benchmarks/test_perf_serve.py"
                       "::test_perf_serve_recorded",
        "environment": bench_environment(),
        "stream": {
            "n_drives": len(profiles),
            "n_samples": len(samples),
        },
        "scoring_throughput": {
            "push_s": push_s,
            "push_many_s": push_many_s,
            "push_samples_per_s": len(samples) / push_s,
            "push_many_samples_per_s": len(samples) / push_many_s,
            "speedup": batch_speedup,
            "identical_verdicts": True,
        },
        "bundle_load": {
            "warm_load_s": warm_load_s,
            "note": "verify sha256 + decode trees; raw seconds are "
                    "context, not pinned",
        },
        "fleet_replay": {
            "serial_s": replay_s,
            "samples_per_s": len(samples) / replay_s,
        },
    }
    path = artifact_dir / "perf_serve.json"
    path.write_text(canonical_json_dumps(payload) + "\n")
