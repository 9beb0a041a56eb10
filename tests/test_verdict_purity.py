"""Purity property: a verdict depends on its sample alone.

The paper's predictor maps one health sample to a degradation stage
through its group regression trees, so every served verdict must be a
pure function of (bundle, sample).  Streams drawn from a bundle's fleet
are permuted, cut into blocks and given duplicate samples, then scored
through every path that turns a batch into verdicts: the kernel
(``DegradationMonitor.observe_columns``), ``StreamScorer.score_block``,
``ShadowScorer``'s champion and challenger blocks, and
``ShardSet.submit_block`` at 1 and 2 shards.  Each line must equal the
line a fresh oracle gives for that sample scored alone, and the drive
state a scorer keeps must be each serial's last oracle level.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitor import AlertLevel
from repro.learn.shadow import ShadowScorer
from repro.serve.bundle import build_bundle
from repro.serve.scorer import StreamScorer, VerdictBlock
from repro.serve.shard import ShardSet
from tests.oracle import oracle_lines

#: Most samples one generated stream holds.
MAX_STREAM = 48


@pytest.fixture(scope="module")
def bundle(mid_report):
    return build_bundle(mid_report, seed=7)


@pytest.fixture(scope="module")
def challenger(bundle):
    """The same trees behind a stricter WATCH threshold, so the shadow's
    two sides disagree on some rows."""
    return replace(bundle, watch_threshold=-0.2)


@pytest.fixture(scope="module")
def pool(mid_fleet):
    """Raw samples from failed and good drives: failed drives' last
    hours, where the verdicts escalate, and good drives' first hours."""
    dataset = mid_fleet.dataset
    samples = []
    for profile in dataset.failed_profiles[:4] + dataset.good_profiles[:3]:
        window = slice(-12, None) if profile.failed else slice(0, 6)
        samples += [(profile.serial, int(hour), row)
                    for hour, row in zip(profile.hours[window],
                                         profile.matrix[window])]
    return samples


@pytest.fixture(scope="module")
def alone(bundle, challenger, pool):
    """Per bundle, the line a fresh oracle gives each pool sample alone."""
    return {id(side): [oracle_lines(side, [sample])[0] for sample in pool]
            for side in (bundle, challenger)}


@st.composite
def streams(draw, n_pool):
    """Pool indices in any order, repeats allowed, cut into blocks."""
    picks = draw(st.lists(st.integers(0, n_pool - 1), max_size=MAX_STREAM))
    cuts = sorted(draw(st.lists(st.integers(0, len(picks)), max_size=4)))
    bounds = [0, *cuts, len(picks)]
    return [picks[start:stop] for start, stop in zip(bounds, bounds[1:])]


def _columns(pool, picks):
    width = len(pool[0][2])
    return ([pool[index][0] for index in picks],
            [pool[index][1] for index in picks],
            np.array([pool[index][2] for index in picks],
                     dtype=np.float64).reshape(len(picks), width))


def _last_levels(pool, lines, picks):
    """Each serial's level in its last oracle line of the stream."""
    return {pool[index][0]: json.loads(lines[index])["level"]
            for index in picks}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_path_equals_the_per_sample_oracle(bundle, challenger, pool,
                                                 alone, data):
    blocks = data.draw(streams(len(pool)))
    picks = [index for block in blocks for index in block]
    expected = [alone[id(bundle)][index] for index in picks]
    expected_challenger = [alone[id(challenger)][index] for index in picks]

    kernel = bundle.monitor()
    scorer = StreamScorer(bundle)
    shadow = ShadowScorer(bundle, challenger)
    outputs = {"kernel": [], "score_block": [], "shadow_champion": [],
               "shadow_challenger": [], "shards-1": [], "shards-2": []}
    snapshots = {}
    for n_shards in (1, 2):
        with ShardSet(bundle, n_shards=n_shards) as shards:
            for block in blocks:
                outputs[f"shards-{n_shards}"] += shards.submit_block(
                    *_columns(pool, block)).to_json_lines()
            snapshots[n_shards] = shards.stop()
    for block in blocks:
        columns = _columns(pool, block)
        outputs["kernel"] += VerdictBlock(
            kernel.observe_columns(*columns)).to_json_lines()
        outputs["score_block"] += scorer.score_block(
            *columns).to_json_lines()
        champion, challenged = shadow.score_block(*columns)
        outputs["shadow_champion"] += champion.to_json_lines()
        outputs["shadow_challenger"] += challenged.to_json_lines()

    for path, lines in outputs.items():
        want = expected_challenger if path == "shadow_challenger" \
            else expected
        assert lines == want, path

    last = _last_levels(pool, alone[id(bundle)], picks)
    assert scorer.drives_tracked == len(last)
    for serial, level in last.items():
        assert scorer.level_of(serial) is AlertLevel[level]
    for level in AlertLevel:
        assert scorer.drives_at(level) == sorted(
            serial for serial, name in last.items() if name == level.name)
    for n_shards, shard_snapshots in snapshots.items():
        served = {serial: drive["level"]
                  for snapshot in shard_snapshots
                  for serial, drive in snapshot["state"]["drives"].items()}
        assert served == last, n_shards
