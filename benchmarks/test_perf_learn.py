"""Shadow-scoring benchmarks: the cost of running two bundles at once.

A shadow run scores every block twice — once per bundle — so its floor
is 2x single-bundle scoring.  The pinned contract: the divergence
bookkeeping (confusion bincount, stage deltas, alert-delta tallies) on
top of that floor stays cheap enough that shadow throughput is within
**2.2x** of a single :class:`~repro.serve.scorer.StreamScorer` over the
same blocked stream, as the median ratio of alternating timed pairs (an
unpaired best-of of each loop swings with host load between the two
loops).  Both throughputs land in
``benchmarks/output/perf_learn.json``, where
``scripts/compare_bench.py`` pins them against the committed baseline
via its ``*samples_per_s`` rule.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import bench_environment
from repro.core.serialize import canonical_json_dumps
from repro.learn.shadow import ShadowScorer
from repro.serve.bundle import build_bundle, stamp_lineage
from repro.serve.scorer import StreamScorer

#: Samples per block — the daemon-typical ingest batch size.
BLOCK_SIZE = 256

#: Timed (single, shadow) pairs behind the gated median ratio.
N_PAIRS = 7


@pytest.fixture(scope="module")
def learn_bundles(bench_report):
    """A champion and a lineage-stamped challenger over the same models.

    The shadow tax is per-sample scoring work, not model content, so a
    re-stamped copy of the champion measures the same cost a refit
    challenger would — without paying a second pipeline run here.
    """
    champion = build_bundle(bench_report)
    return champion, stamp_lineage(champion, champion)


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


def test_shadow_champion_stream_is_byte_identical(learn_bundles,
                                                  blocked_stream):
    """Cheap tier: shadowing observes the champion, never changes it."""
    champion, challenger = learn_bundles
    subset = blocked_stream[:8]
    scorer = StreamScorer(champion)
    expected = []
    for serials, hours, matrix in subset:
        expected.extend(scorer.score_block(serials, hours,
                                           matrix).to_json_lines())
    shadow = ShadowScorer(champion, challenger)
    actual = []
    for serials, hours, matrix in subset:
        champ_block, _chall_block = shadow.score_block(serials, hours,
                                                       matrix)
        actual.extend(champ_block.to_json_lines())
    assert actual == expected


@pytest.mark.tier2
def test_perf_learn_recorded(learn_bundles, blocked_stream, artifact_dir):
    """Record single-bundle vs shadow blocked-scoring throughput.

    Identity between the timed paths is pinned by the cheap tier above;
    the timings compare the same champion verdict stream with and
    without a challenger riding shotgun.
    """
    champion, challenger = learn_bundles
    n_samples = sum(len(serials) for serials, _hours, _matrix
                    in blocked_stream)

    def single():
        scorer = StreamScorer(champion)
        start = time.perf_counter()
        for serials, hours, matrix in blocked_stream:
            scorer.score_block(serials, hours, matrix)
        return time.perf_counter() - start

    def shadowed():
        shadow = ShadowScorer(champion, challenger)
        start = time.perf_counter()
        for serials, hours, matrix in blocked_stream:
            shadow.score_block(serials, hours, matrix)
        return time.perf_counter() - start

    # Each pair times both loops back to back, alternating which goes
    # first, so a load swing on the shared host hits both halves of a
    # pair; the median pair ratio is what the gate reads.
    single_times, shadow_times, pair_ratios = [], [], []
    for index in range(N_PAIRS):
        if index % 2:
            shadow_times.append(shadowed())
            single_times.append(single())
        else:
            single_times.append(single())
            shadow_times.append(shadowed())
        pair_ratios.append(shadow_times[-1] / single_times[-1])
    single_s, shadow_s = min(single_times), min(shadow_times)

    overhead = sorted(pair_ratios)[N_PAIRS // 2]
    assert overhead <= 2.2, (
        f"shadow scoring is {overhead:.2f}x single-bundle scoring — the "
        f"divergence bookkeeping is costing more than the second bundle")

    payload = {
        "recorded_by":
            "benchmarks/test_perf_learn.py::test_perf_learn_recorded",
        "environment": bench_environment(),
        "stream": {
            "n_samples": n_samples,
            "n_blocks": len(blocked_stream),
            "block_size": BLOCK_SIZE,
        },
        "shadow_throughput": {
            "single_s": single_s,
            "single_samples_per_s": n_samples / single_s,
            "shadow_s": shadow_s,
            "shadow_samples_per_s": n_samples / shadow_s,
            "shadow_overhead_vs_single": overhead,
            "pairs": N_PAIRS,
            "note": "blocked columnar scoring; shadow scores every "
                    "block through champion and challenger and tallies "
                    "the divergence report; the overhead is the median "
                    "ratio of alternating timed pairs, the seconds are "
                    "the fastest run of each loop",
        },
    }
    path = artifact_dir / "perf_learn.json"
    path.write_text(canonical_json_dumps(payload) + "\n")
