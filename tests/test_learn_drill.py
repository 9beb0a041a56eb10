"""Drift-drill acceptance tests: the whole loop, pinned byte-identical.

One module-scoped :class:`~repro.learn.drill.DriftDrill` pays the two
fleet simulations and two pipeline runs once; everything else asserts
against it — the core document is byte-identical across repeated
prepares, the served verdict stream matches offline scoring for shard
counts 1, 2 and 4 with a live mid-stream promotion, and the challenger
carries the champion's lineage.
"""

import pytest

from repro.core.serialize import canonical_json_dumps
from repro.errors import LearnError
from repro.learn.drill import DriftDrill, blocked_stream
from repro.serve.bundle import content_hash

#: Drill sizing for the test tier: ~4 failed drives, ~5 s to prepare.
DRILL_KWARGS = dict(seed=11, n_drives=240, block_size=256)


@pytest.fixture(scope="module")
def drill():
    return DriftDrill(**DRILL_KWARGS).prepare()


# -- blocked_stream ---------------------------------------------------------

def test_blocked_stream_orders_by_hour_then_serial(small_dataset):
    blocks = blocked_stream(small_dataset, 512)
    seen = [(hour, serial) for serials, hours, _matrix in blocks
            for serial, hour in zip(serials, hours)]
    assert seen == sorted(seen)
    assert all(len(serials) <= 512 for serials, _h, _m in blocks)


def test_blocked_stream_rejects_bad_block_size(small_dataset):
    with pytest.raises(LearnError):
        blocked_stream(small_dataset, 0)


# -- guard rails ------------------------------------------------------------

def test_drill_refuses_tiny_fleets():
    with pytest.raises(LearnError, match="100 drives"):
        DriftDrill(n_drives=50)


def test_core_payload_and_run_require_prepare():
    unprepared = DriftDrill(**DRILL_KWARGS)
    with pytest.raises(LearnError, match="prepare"):
        unprepared.core_payload()
    with pytest.raises(LearnError, match="prepare"):
        unprepared.run(1)


# -- the prepared loop ------------------------------------------------------

def test_drift_alarms_fired_on_the_injected_shift(drill):
    assert drill.alarms
    attributes = {alarm.attribute for alarm in drill.alarms}
    assert "TC" in attributes  # the temperature attribute must trip


def test_challenger_lineage_chains_to_the_champion(drill):
    champion_sha = content_hash(drill.champion.to_payload())
    assert drill.challenger.generation == drill.champion.generation + 1
    assert drill.challenger.parent_sha256 == champion_sha
    assert content_hash(drill.challenger.to_payload()) != champion_sha


def test_drill_decision_promotes(drill):
    assert drill.decision.promote is True
    assert drill.decision.reasons == ()


def test_core_payload_is_byte_identical_across_prepares(drill):
    again = DriftDrill(**DRILL_KWARGS).prepare()
    assert canonical_json_dumps(again.core_payload()) \
        == canonical_json_dumps(drill.core_payload())


@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_served_stream_matches_offline_for_any_shard_count(drill, n_shards):
    result = drill.run(n_shards)
    assert sorted(result) == ["matches_offline", "n_shards",
                              "promotion_receipts", "verdict_sha256"]
    assert result["matches_offline"] is True
    assert result["verdict_sha256"] == drill.core_payload()["verdict_sha256"]
    assert len(result["promotion_receipts"]) == n_shards


def test_run_survives_a_wal_and_still_matches(drill, tmp_path):
    result = drill.run(2, wal_dir=tmp_path / "wal")
    assert result["matches_offline"] is True
