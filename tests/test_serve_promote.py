"""Live-promotion tests: the daemon's /promote plane and the WAL fence.

The promotion contract in full: a lineage-checked challenger swaps in
atomically over HTTP, verdicts before/after the swap are byte-identical
to offline scoring with :meth:`StreamScorer.swap_bundle` at the same
point, the WAL is rebound so recovery replays under the right
generation (``repro-serve recover`` refuses the wrong bundle), and one
call rolls the whole thing back.
"""

import json

import pytest

from repro.errors import ServeError, WalError
from repro.learn.drill import blocked_stream
from repro.data.dataset import DiskDataset
from repro.serve.bundle import (build_bundle, content_hash, save_bundle,
                                stamp_lineage)
from repro.serve.cli import main as serve_main
from repro.serve.daemon import ServingDaemon
from repro.serve.scorer import StreamScorer
from repro.serve.shard import ShardSet
from repro.serve.wal import ShardWal

from tests.test_obs_http import _get, _post


@pytest.fixture(scope="module")
def champion(mid_report):
    return build_bundle(mid_report, seed=7)


@pytest.fixture(scope="module")
def challenger(champion):
    """Same models, lineage-stamped: a distinct, promotable artifact."""
    return stamp_lineage(champion, champion)


@pytest.fixture(scope="module")
def challenger_doc(challenger, tmp_path_factory):
    path = tmp_path_factory.mktemp("promote") / "challenger.bundle.json"
    save_bundle(challenger, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def blocks(mid_fleet):
    dataset = mid_fleet.dataset
    subset = DiskDataset(dataset.failed_profiles[:4]
                         + dataset.good_profiles[:12])
    return blocked_stream(subset, 128)


def _ingest_body(serials, hours, matrix):
    return json.dumps({"samples": [
        [serial, int(hour), [float(v) for v in row]]
        for serial, hour, row in zip(serials, hours, matrix)
    ]}).encode("utf-8")


# -- the embedding API ------------------------------------------------------

def test_promote_refuses_the_identical_bundle(champion):
    with ServingDaemon(champion) as daemon:
        with pytest.raises(ServeError, match="identical"):
            daemon.promote_bundle(champion)


def test_promote_refuses_a_lineage_break_unless_forced(champion,
                                                       challenger):
    orphan = stamp_lineage(champion, challenger)  # parent != champion
    with ServingDaemon(champion) as daemon:
        with pytest.raises(ServeError, match="lineage"):
            daemon.promote_bundle(orphan)
        receipt = daemon.promote_bundle(orphan, force=True)
        assert receipt == {"generation": orphan.generation,
                           "snapshot_seq": 0}


def test_rollback_without_a_promotion_is_refused(champion):
    with ServingDaemon(champion) as daemon:
        with pytest.raises(ServeError, match="no previous"):
            daemon.rollback_bundle()


# -- the HTTP plane ---------------------------------------------------------

def test_http_promote_status_and_rollback(champion, challenger,
                                          challenger_doc):
    champion_sha = content_hash(champion.to_payload())
    challenger_sha = content_hash(challenger.to_payload())
    with ServingDaemon(champion) as daemon:
        status, _headers, body = _post(daemon.url + "/promote",
                                       challenger_doc)
        assert status == 200
        reply = json.loads(body)
        assert reply["status"] == "promoted"
        assert reply["bundle_sha256"] == challenger_sha
        assert reply["generation"] == 1
        assert "shards" not in reply

        _status, _headers, body = _get(daemon.url + "/status")
        bundle_view = json.loads(body)["bundle"]
        assert bundle_view["sha256"] == challenger_sha
        assert bundle_view["generation"] == 1
        assert bundle_view["parent_sha256"] == champion_sha
        assert bundle_view["previous"] == champion_sha

        status, _headers, body = _post(
            daemon.url + "/promote?rollback=1", b"")
        assert status == 200
        reply = json.loads(body)
        assert reply["status"] == "rolled_back"
        assert reply["bundle_sha256"] == champion_sha
        assert reply["generation"] == 0


def test_http_promote_rejects_malformed_and_conflicting(champion,
                                                        challenger_doc):
    with ServingDaemon(champion) as daemon:
        status, _headers, _body = _post(daemon.url + "/promote",
                                        b"not json")
        assert status == 400
        # A raw payload without its content hash fails verification.
        status, _headers, body = _post(
            daemon.url + "/promote",
            json.dumps(champion.to_payload()).encode("utf-8"))
        assert status == 400
        # The serving bundle itself is a conflict, not a bad request.
        _post(daemon.url + "/promote", challenger_doc)
        status, _headers, body = _post(daemon.url + "/promote",
                                       challenger_doc)
        assert status == 409
        assert "identical" in json.loads(body)["error"]
        # Rollback with no further promotion history after using it once.
        status, _, _ = _post(daemon.url + "/promote?rollback=1", b"")
        assert status == 200


def test_http_verdicts_across_promotion_match_offline_swap(champion,
                                                           challenger,
                                                           challenger_doc,
                                                           blocks):
    """The drill's contract, over the wire: promote between two ingest
    batches and the concatenated verdicts equal an offline swap_bundle
    at the same block."""
    promote_at = len(blocks) // 2
    scorer = StreamScorer(champion)
    expected = []
    for index, (serials, hours, matrix) in enumerate(blocks):
        if index == promote_at:
            scorer.swap_bundle(challenger)
        expected.extend(scorer.score_block(serials, hours,
                                           matrix).to_json_lines())
    collected = []
    with ServingDaemon(champion) as daemon:
        for index, (serials, hours, matrix) in enumerate(blocks):
            if index == promote_at:
                status, _h, _b = _post(daemon.url + "/promote",
                                       challenger_doc)
                assert status == 200
            status, _headers, body = _post(
                daemon.url + "/ingest?verdicts=all",
                _ingest_body(serials, hours, matrix))
            assert status == 200
            collected.extend(body.splitlines())
    assert collected == expected


# -- the WAL fence ----------------------------------------------------------

def test_promotion_rebinds_the_wal_generation(champion, challenger,
                                              blocks, tmp_path):
    wal_dir = tmp_path / "wal"
    with ShardSet(champion, wal_dir=wal_dir) as partition:
        for serials, hours, matrix in blocks[:2]:
            partition.submit_block(serials, hours, matrix)
        receipt = partition.promote(challenger)
        for serials, hours, matrix in blocks[2:4]:
            partition.submit_block(serials, hours, matrix)
    assert receipt == {"generation": 1, "snapshot_seq": 2}
    meta = json.loads((wal_dir / "shard-000" / "wal.json").read_text())
    assert meta["generation"] == 1
    assert meta["bundle_sha256"] == content_hash(challenger.to_payload())


def test_wal_refuses_to_reopen_under_the_wrong_generation(champion,
                                                          challenger,
                                                          blocks,
                                                          tmp_path):
    wal_dir = tmp_path / "wal"
    with ShardSet(champion, wal_dir=wal_dir) as partition:
        partition.submit_block(*blocks[0])
        partition.promote(challenger)
        partition.submit_block(*blocks[1])
    shard_dir = wal_dir / "shard-000"
    challenger_sha = content_hash(challenger.to_payload())
    # Wrong bundle entirely: the sha fence fires first.
    with pytest.raises(WalError, match="refusing to replay"):
        ShardWal(shard_dir,
                 bundle_sha256=content_hash(champion.to_payload()),
                 generation=champion.generation).open()
    # Right bundle bytes claimed under the wrong generation: the
    # generation fence fires on its own.
    with pytest.raises(WalError, match="generation"):
        ShardWal(shard_dir, bundle_sha256=challenger_sha,
                 generation=champion.generation).open()
    with ShardWal(shard_dir,
                  bundle_sha256=content_hash(challenger.to_payload()),
                  generation=challenger.generation) as wal:
        assert wal.generation == challenger.generation


def test_recover_cli_refuses_a_wrong_generation_bundle(champion,
                                                       challenger,
                                                       blocks, tmp_path,
                                                       capsys):
    wal_dir = tmp_path / "wal"
    with ShardSet(champion, wal_dir=wal_dir) as partition:
        partition.submit_block(*blocks[0])
        partition.promote(challenger)
        partition.submit_block(*blocks[1])
    champion_path = tmp_path / "champion.bundle.json"
    challenger_path = tmp_path / "challenger.bundle.json"
    save_bundle(champion, champion_path)
    save_bundle(challenger, challenger_path)

    assert serve_main(["recover", "--bundle", str(champion_path),
                       "--wal-dir", str(wal_dir)]) == 2
    assert "refusing to replay" in capsys.readouterr().err

    assert serve_main(["recover", "--bundle", str(challenger_path),
                       "--wal-dir", str(wal_dir)]) == 0
