"""Columnar streaming core: one-batch-per-tick scoring throughput.

The cheap tier pins the contract that makes the columnar path safe to
ship: ``score_block`` over hour ticks serializes byte-identically to the
per-sample ``DegradationMonitor.observe`` oracle on the same stream.
``test_perf_columnar_recorded`` then measures the struct-of-arrays path — :meth:`StreamScorer.score_block`
with a :class:`~repro.core.columnar.ColumnStateStore`, no per-row verdict
materialization — against the ``push_many`` baseline recorded by
``benchmarks/test_perf_serve.py`` on the same stream shape (200 drives,
~39k samples), asserts the ``>= 10x`` floor, and writes the numbers to
``benchmarks/output/perf_columnar.json`` (the ``speedup`` ratio and the
``*samples_per_s`` throughputs are pinned by ``scripts/compare_bench.py``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import bench_environment
from repro.core.serialize import canonical_json_dumps
from repro.serve.bundle import build_bundle
from repro.serve.scorer import StreamScorer
from tests.oracle import oracle_lines


def _best_of(fn, repeat=3):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.fixture(scope="module")
def columnar_bundle(bench_report):
    return build_bundle(bench_report)


@pytest.fixture(scope="module")
def columnar_stream(bench_fleet):
    """The ``perf_serve`` stream shape: 200 drives, failed included."""
    dataset = bench_fleet.dataset
    profiles = (dataset.failed_profiles[:40] + dataset.good_profiles[:160])
    return [
        (profile.serial, int(hour), row)
        for profile in profiles
        for hour, row in zip(profile.hours, profile.matrix)
    ]


@pytest.fixture(scope="module")
def tick_blocks(columnar_stream):
    """The stream regrouped one batch per hour tick, column-major.

    Each tick carries the stream indices of its rows so columnar
    verdict lines can be scattered back into stream order for the
    byte-identity checks.
    """
    by_hour: dict[int, list[int]] = {}
    for index, (_, hour, _) in enumerate(columnar_stream):
        by_hour.setdefault(hour, []).append(index)
    ticks = []
    for hour in sorted(by_hour):
        indices = by_hour[hour]
        ticks.append((
            indices,
            [columnar_stream[i][0] for i in indices],
            [hour] * len(indices),
            np.array([columnar_stream[i][2] for i in indices],
                     dtype=np.float64),
        ))
    return ticks


def _columnar_lines(bundle, ticks, n_samples):
    """Score every tick block and return lines in stream order."""
    scorer = StreamScorer(bundle)
    lines: list[str | None] = [None] * n_samples
    for indices, serials, hours, matrix in ticks:
        block = scorer.score_block(serials, hours, matrix)
        for row, index in enumerate(indices):
            lines[index] = block.verdict_at(row).to_json_line()
    return lines


def test_tick_blocks_cover_stream(columnar_stream, tick_blocks):
    covered = sorted(i for tick in tick_blocks for i in tick[0])
    assert covered == list(range(len(columnar_stream)))


def test_columnar_verdicts_match_push(columnar_bundle, columnar_stream,
                                      tick_blocks):
    """Tick-batched ``score_block`` is byte-identical to the oracle."""
    expected = oracle_lines(columnar_bundle, columnar_stream[:2000])
    lines = _columnar_lines(columnar_bundle, tick_blocks,
                            len(columnar_stream))
    assert lines[:2000] == expected


@pytest.mark.tier2
def test_perf_columnar_recorded(columnar_bundle, columnar_stream,
                                tick_blocks, artifact_dir):
    """Record columnar block scoring against the ``push_many`` baseline.

    Byte-identity over the full stream is asserted before any timing —
    once through hour ticks, once with the stream as a single block (a
    duplicate-heavy batch, exercising the occurrence-ordered ring
    write) — so the recorded speedup is verdict-for-verdict on the same
    stream.  The headline compares one ``push_many`` call against one
    ``score_block`` call on the same samples; the timed columnar passes
    skip materialization entirely, which is the production daemon's hot
    loop.  Tick-granularity throughput (~29-row blocks here) rides
    along as the small-batch context number.
    """
    n_samples = len(columnar_stream)
    serials = [sample[0] for sample in columnar_stream]
    hours = [sample[1] for sample in columnar_stream]
    matrix = np.array([sample[2] for sample in columnar_stream],
                      dtype=np.float64)

    baseline = StreamScorer(columnar_bundle)
    expected = [verdict.to_json_line()
                for verdict in baseline.push_many(columnar_stream)]
    tick_lines = _columnar_lines(columnar_bundle, tick_blocks, n_samples)
    block = StreamScorer(columnar_bundle).score_block(serials, hours, matrix)
    identical = (tick_lines == expected
                 and block.to_json_lines() == expected)
    assert identical

    push_many_s = _best_of(
        lambda: StreamScorer(columnar_bundle).push_many(columnar_stream),
        repeat=3)
    columnar_s = _best_of(
        lambda: StreamScorer(columnar_bundle).score_block(
            serials, hours, matrix),
        repeat=5)
    speedup = push_many_s / columnar_s
    assert speedup >= 10.0, (
        f"columnar block scoring only {speedup:.1f}x over push_many")

    def tick_pass():
        scorer = StreamScorer(columnar_bundle)
        for _, tick_serials, tick_hours, tick_matrix in tick_blocks:
            scorer.score_block(tick_serials, tick_hours, tick_matrix)

    tick_s = _best_of(tick_pass, repeat=3)

    payload = {
        "recorded_by": "benchmarks/test_perf_columnar.py"
                       "::test_perf_columnar_recorded",
        "environment": bench_environment(),
        "stream": {
            "n_drives": 200,
            "n_samples": n_samples,
            "n_ticks": len(tick_blocks),
            "note": "same stream shape as perf_serve.json",
        },
        "scoring_throughput": {
            "push_many_s": push_many_s,
            "columnar_s": columnar_s,
            "push_many_samples_per_s": n_samples / push_many_s,
            "columnar_samples_per_s": n_samples / columnar_s,
            "speedup": speedup,
            "identical_verdicts": identical,
        },
        "tick_scoring": {
            "tick_s": tick_s,
            "tick_samples_per_s": n_samples / tick_s,
            "rows_per_tick": n_samples / len(tick_blocks),
            "note": "one score_block call per hour tick; small-batch "
                    "overhead context, not the headline",
        },
    }
    path = artifact_dir / "perf_columnar.json"
    path.write_text(canonical_json_dumps(payload) + "\n")
