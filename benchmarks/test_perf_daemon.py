"""Daemon-plane benchmarks: partition ingest throughput vs the raw scorer.

The cheap tier asserts the partition's byte-identity contract at bench
scale.  ``test_perf_daemon_recorded`` measures columnar ingest
throughput along the daemon's admission path — ``StreamScorer.score_block``
with every verdict materialized as the baseline (recorded under the
historical ``push_block`` keys), the daemon's
:class:`~repro.serve.shard.ShardSet` partition, and the full
:class:`~repro.serve.daemon.ServingDaemon` ingest (sink fan-out and
accounting included) — and writes the numbers to
``benchmarks/output/perf_daemon.json``.  The pinned floor is the
*overhead* bound: partition ingest (admission, accounting) must stay
within a constant factor of the raw columnar path.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import bench_environment
from repro.core.serialize import canonical_json_dumps
from repro.serve.bundle import build_bundle
from repro.serve.daemon import ServingDaemon
from repro.serve.scorer import StreamScorer
from repro.serve.shard import ShardSet
from tests.oracle import oracle_lines


def _best_of(fn, repeat=3):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.fixture(scope="module")
def daemon_bundle(bench_report):
    return build_bundle(bench_report)


@pytest.fixture(scope="module")
def columnar_stream(bench_fleet):
    """~200 drives of hourly samples in columnar (serials, hours, matrix)."""
    dataset = bench_fleet.dataset
    profiles = dataset.failed_profiles[:40] + dataset.good_profiles[:160]
    serials, hours, rows = [], [], []
    for profile in profiles:
        for hour, row in zip(profile.hours, profile.matrix):
            serials.append(profile.serial)
            hours.append(int(hour))
            rows.append(np.asarray(row, dtype=np.float64))
    return serials, hours, np.vstack(rows)


def test_sharded_identity_at_bench_scale(daemon_bundle, columnar_stream):
    serials, hours, matrix = columnar_stream
    subset = slice(0, 2000)
    expected = oracle_lines(daemon_bundle, zip(
        serials[subset], hours[subset], matrix[subset]))
    with ShardSet(daemon_bundle) as partition:
        actual = [v.to_json_line() for v in partition.submit_block(
            serials[subset], hours[subset], matrix[subset]).verdicts()]
    assert actual == expected


@pytest.mark.tier2
def test_perf_daemon_recorded(daemon_bundle, columnar_stream, artifact_dir):
    """Record daemon-path ingest throughput against the raw scorer.

    Identity between the timed paths is covered by the cheap tier above
    and the serving test suite, so the timings here compare the same
    verdict stream algorithm-for-algorithm.
    """
    serials, hours, matrix = columnar_stream
    n_samples = len(serials)

    block_s = _best_of(
        lambda: StreamScorer(daemon_bundle).score_block(
            serials, hours, matrix).verdicts(),
        repeat=3)

    def partition_ingest():
        with ShardSet(daemon_bundle) as partition:
            partition.submit_block(serials, hours, matrix).verdicts()
    partition_s = _best_of(partition_ingest, repeat=3)

    def daemon_ingest():
        daemon = ServingDaemon(daemon_bundle)
        daemon.ingest_block(serials, hours, matrix).verdicts()
        daemon.stop()
    daemon_s = _best_of(daemon_ingest, repeat=3)

    # The partition rides on score_block; its tax is admission and
    # accounting.  Keep it a bounded constant factor so a regression in
    # the hot path cannot hide behind "the daemon is slow".
    overhead = partition_s / block_s
    assert overhead < 3.0, (
        f"partition ingest is {overhead:.2f}x the raw columnar path")
    assert n_samples / daemon_s > 10_000, (
        f"daemon ingest fell to {n_samples / daemon_s:,.0f} samples/s")

    payload = {
        "recorded_by": "benchmarks/test_perf_daemon.py"
                       "::test_perf_daemon_recorded",
        "environment": bench_environment(),
        "stream": {
            "n_drives": len(set(serials)),
            "n_samples": n_samples,
        },
        "ingest_throughput": {
            "push_block_s": block_s,
            "push_block_samples_per_s": n_samples / block_s,
            "partition_s": partition_s,
            "partition_samples_per_s": n_samples / partition_s,
            "daemon_ingest_s": daemon_s,
            "daemon_ingest_samples_per_s": n_samples / daemon_s,
            "partition_overhead_vs_block": overhead,
            "note": "the overhead ratio is the pinned contract",
        },
    }
    path = artifact_dir / "perf_daemon.json"
    path.write_text(canonical_json_dumps(payload) + "\n")
