"""WAL-overhead benchmarks: ingest throughput with and without the log.

Crash safety has a price — every admitted block is framed, hashed and
appended (with batched fsync) before it scores.  The pinned contract:
with the default fsync batching, WAL-on ingest stays within **2x** of
WAL off ingest on the same blocked stream; WAL off (a daemon started
without ``--wal-dir``) adds no work at all.  Both throughputs
land in ``benchmarks/output/perf_wal.json``, where
``scripts/compare_bench.py`` pins them against the committed baseline
via its ``*samples_per_s`` rule.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import bench_environment
from repro.core.serialize import canonical_json_dumps
from repro.serve.bundle import build_bundle
from repro.serve.scorer import StreamScorer
from repro.serve.shard import ShardSet

#: Samples per ingest block — the daemon-typical batch size, so the WAL
#: sees one append per block, not one per stream.
BLOCK_SIZE = 256


def _best_of(fn, repeat=3):
    """Min over ``repeat`` calls of a fn that returns elapsed seconds."""
    return min(fn() for _ in range(repeat))


@pytest.fixture(scope="module")
def wal_bundle(bench_report):
    return build_bundle(bench_report)


@pytest.fixture(scope="module")
def blocked_stream(bench_fleet):
    """~200 drives of hourly samples cut into daemon-sized blocks."""
    dataset = bench_fleet.dataset
    profiles = dataset.failed_profiles[:40] + dataset.good_profiles[:160]
    serials, hours, rows = [], [], []
    for profile in profiles:
        for hour, row in zip(profile.hours, profile.matrix):
            serials.append(profile.serial)
            hours.append(int(hour))
            rows.append(np.asarray(row, dtype=np.float64))
    matrix = np.vstack(rows)
    return [(serials[i:i + BLOCK_SIZE], hours[i:i + BLOCK_SIZE],
             matrix[i:i + BLOCK_SIZE])
            for i in range(0, len(serials), BLOCK_SIZE)]


def test_wal_stream_is_byte_identical_to_raw(wal_bundle, blocked_stream,
                                             tmp_path):
    """Cheap tier: the WAL path changes durability, never bytes."""
    subset = blocked_stream[:8]
    scorer = StreamScorer(wal_bundle)
    expected = []
    for serials, hours, matrix in subset:
        expected.extend(scorer.score_block(serials, hours,
                                           matrix).to_json_lines())
    actual = []
    with ShardSet(wal_bundle, n_shards=2, wal_dir=tmp_path / "wal") as shards:
        for index, (serials, hours, matrix) in enumerate(subset):
            actual.extend(shards.submit_block(
                serials, hours, matrix,
                block_id=f"perf-{index}").to_json_lines())
    assert actual == expected


@pytest.mark.tier2
def test_perf_wal_recorded(wal_bundle, blocked_stream, artifact_dir):
    """Record WAL-on vs WAL-off blocked ingest throughput.

    Identity between the timed paths is pinned by the cheap tier above
    and the recovery suite; the timings compare the same verdict stream
    with and without the durability tax.
    """
    n_samples = sum(len(serials) for serials, _hours, _matrix
                    in blocked_stream)

    def run(wal_dir):
        """Time the ingest loop only — spawn and drain are not ingest."""
        with ShardSet(wal_bundle, n_shards=2, wal_dir=wal_dir) as shards:
            start = time.perf_counter()
            for serials, hours, matrix in blocked_stream:
                shards.submit_block(serials, hours, matrix)
            return time.perf_counter() - start

    def wal_off():
        return run(None)

    def wal_on():
        with tempfile.TemporaryDirectory() as scratch:
            return run(Path(scratch) / "wal")

    off_s = _best_of(wal_off, repeat=3)
    on_s = _best_of(wal_on, repeat=3)

    overhead = on_s / off_s
    assert overhead <= 2.0, (
        f"WAL-on ingest is {overhead:.2f}x WAL-off — fsync batching is "
        f"not absorbing the durability tax")

    payload = {
        "recorded_by": "benchmarks/test_perf_wal.py::test_perf_wal_recorded",
        "environment": bench_environment(),
        "stream": {
            "n_samples": n_samples,
            "n_blocks": len(blocked_stream),
            "block_size": BLOCK_SIZE,
        },
        "ingest_throughput": {
            "wal_off_s": off_s,
            "wal_off_samples_per_s": n_samples / off_s,
            "wal_on_s": on_s,
            "wal_on_samples_per_s": n_samples / on_s,
            "wal_overhead_vs_off": overhead,
            "note": "2-shard blocked ingest; WAL off is a daemon "
                    "without --wal-dir, WAL-on uses default fsync "
                    "batching",
        },
    }
    path = artifact_dir / "perf_wal.json"
    path.write_text(canonical_json_dumps(payload) + "\n")
