"""Telemetry-overhead benchmarks: the observability plane must be
(nearly) free on the scoring hot path.

The cheap tier asserts the invariant the whole plane is built on —
instrumented and uninstrumented scoring emit byte-identical verdicts.
``test_perf_obs_recorded`` (tier 2) times the streaming scorer with a
:class:`~repro.obs.observer.TelemetryObserver` attached against the
``NULL_OBSERVER`` baseline and fails if telemetry costs more than 10%
(the design target is <5%; the assertion leaves noise headroom).  The
machine-relative ``speedup`` ratio (uninstrumented over instrumented,
~1.0 when telemetry is free) lands in
``benchmarks/output/perf_obs.json`` and is pinned by
``scripts/compare_bench.py``.
"""

from __future__ import annotations

import gc
import time

import pytest

from conftest import bench_environment
from repro.core.serialize import canonical_json_dumps
from repro.obs.export import render_prometheus
from repro.obs.metrics import Histogram
from repro.obs.observer import NULL_OBSERVER, TelemetryObserver
from repro.serve.bundle import build_bundle
from repro.serve.scorer import StreamScorer


def _best_of(fn, repeat=3):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.fixture(scope="module")
def obs_bundle(bench_report):
    return build_bundle(bench_report)


@pytest.fixture(scope="module")
def obs_samples(bench_fleet):
    """~120 drives of raw hourly samples, failed drives included."""
    dataset = bench_fleet.dataset
    profiles = dataset.failed_profiles[:40] + dataset.good_profiles[:80]
    return [
        (profile.serial, int(hour), row)
        for profile in profiles
        for hour, row in zip(profile.hours, profile.matrix)
    ]


def test_instrumented_verdicts_identical_at_bench_scale(obs_bundle,
                                                        obs_samples):
    """Telemetry observes scoring; it never changes a verdict."""
    bare = StreamScorer(obs_bundle, observer=NULL_OBSERVER)
    instrumented = StreamScorer(obs_bundle, observer=TelemetryObserver())
    bare_lines = [v.to_json_line() for v in bare.push_many(obs_samples)]
    inst_lines = [v.to_json_line()
                  for v in instrumented.push_many(obs_samples)]
    assert inst_lines == bare_lines


@pytest.mark.tier2
def test_perf_obs_recorded(obs_bundle, obs_samples, artifact_dir):
    """Record the telemetry tax on the scoring hot path.

    Byte-identity is asserted by the cheap tier above; here fresh
    scorers replay the same stream with and without telemetry and the
    instrumented path must stay within 10% of the bare one.
    """
    n_samples = len(obs_samples)

    def bare_once():
        StreamScorer(obs_bundle, observer=NULL_OBSERVER).push_many(obs_samples)

    def instrumented_once():
        StreamScorer(
            obs_bundle, observer=TelemetryObserver()).push_many(obs_samples)

    # Interleave the repetitions: timing all bare reps in one block and
    # all instrumented reps in another lets machine-speed drift between
    # the blocks (a shared box, a thermal step) masquerade as telemetry
    # overhead.  Each back-to-back pair shares its noise environment, so
    # the *cleanest pair's* ratio is the least-contaminated estimate of
    # the intrinsic telemetry tax — on a contended 1-core box individual
    # pairs swing by +-10%, but a real regression lifts every pair, so
    # the minimum still catches it.  The unmeasured warmup pair and the
    # collect sweep keep cold caches and the heap state left behind by
    # earlier benches out of the first sample.
    bare_once()
    instrumented_once()
    gc.collect()
    bare_times, instrumented_times, pair_ratios = [], [], []
    for _ in range(7):
        start = time.perf_counter()
        bare_once()
        bare_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        instrumented_once()
        instrumented_times.append(time.perf_counter() - start)
        pair_ratios.append(instrumented_times[-1] / bare_times[-1])
    bare_s = min(bare_times)
    instrumented_s = min(instrumented_times)
    overhead = min(pair_ratios) - 1.0
    assert overhead < 0.10, (
        f"telemetry costs {overhead:.1%} on the scoring hot path "
        f"(target <5%, hard ceiling 10%; cleanest of "
        f"{len(pair_ratios)} interleaved pairs)"
    )

    # Context: the raw per-observation cost of the bounded histogram,
    # and the /metrics render latency a scrape pays at bench scale.
    stress = Histogram("bench_stress")
    n_obs = 200_000
    values = [float(i % 977) / 977.0 for i in range(n_obs)]

    def observe_all():
        for value in values:
            stress.observe(value)

    observe_s = _best_of(observe_all, repeat=3)

    scrape_observer = TelemetryObserver()
    StreamScorer(obs_bundle, observer=scrape_observer).push_many(obs_samples)
    registry = scrape_observer.metrics
    render_s = _best_of(lambda: render_prometheus(registry), repeat=5)

    payload = {
        "recorded_by": "benchmarks/test_perf_obs.py::test_perf_obs_recorded",
        "environment": bench_environment(),
        "stream": {"n_samples": n_samples},
        "scoring_overhead": {
            "bare_s": bare_s,
            "instrumented_s": instrumented_s,
            "overhead_fraction": overhead,
            "pair_ratio_median": sorted(pair_ratios)[len(pair_ratios) // 2],
            "speedup": bare_s / instrumented_s,
            "identical_verdicts": True,
        },
        "histogram_observe": {
            "n_observations": n_obs,
            "total_s": observe_s,
            "ns_per_observe": observe_s / n_obs * 1e9,
            "retained": len(stress._values),
        },
        "prometheus_render": {
            "render_s": render_s,
            "note": "full /metrics body over the scorer's registry; raw "
                    "seconds are context, not pinned",
        },
    }
    path = artifact_dir / "perf_obs.json"
    path.write_text(canonical_json_dumps(payload) + "\n")
