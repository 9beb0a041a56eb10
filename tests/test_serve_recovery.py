"""Crash-recovery tests: kill the partition, replay the WAL, compare bytes.

The robustness acceptance criteria live here: a partition killed at
seeded points (:meth:`~repro.serve.shard.ShardSet.kill`) is rebuilt
from snapshot + WAL suffix into byte-identical state, and the
surviving verdict stream matches an uninterrupted run exactly —
including the ack gap (WAL-appended but unanswered) via the
``crash_after_seq`` chaos hook.  A fresh
:class:`~repro.serve.shard.ShardSet` on an abandoned WAL directory —
including one left by a SIGKILLed child process — resumes the stream,
serving retried block ids from the dedup cache, and a directory in the
multi-shard layout of earlier code is refused by name.  Over HTTP, a
recovering partition answers 503 with ``Retry-After`` while
``/health`` reports ``degraded``, and both return to normal once
replay finishes.
"""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import FaultInjectionError, ServeError, SinkError, WalError
from repro.faults.chaos_serve import (
    BlackholeSink,
    kill_plan,
    run_chaos_stream,
    verdict_lines,
)
from repro.obs.observer import TelemetryObserver
from repro.serve.bundle import (build_bundle, content_hash, load_bundle,
                                save_bundle)
from repro.serve.cli import main as serve_main
from repro.serve.daemon import ServingDaemon
from repro.serve.scorer import StreamScorer
from repro.serve.shard import HashRing, ShardSet
from repro.serve.wal import ShardWal, encode_block

from tests.oracle import oracle_lines
from tests.test_obs_http import _get, _post

#: A WAL directory written by earlier code, with the bundle it names.
LEGACY_WAL = Path(__file__).parent / "data" / "legacy_wal_2shard"


@pytest.fixture(scope="module")
def bundle(mid_report):
    return build_bundle(mid_report, seed=7)


@pytest.fixture(scope="module")
def blocks(mid_fleet):
    """The sample stream cut into columnar blocks of bounded size."""
    dataset = mid_fleet.dataset
    profiles = dataset.failed_profiles[:4] + dataset.good_profiles[:8]
    serials, hours, rows = [], [], []
    for profile in profiles:
        keep = None if profile.failed else 6
        for hour, row in zip(profile.hours[:keep], profile.matrix[:keep]):
            serials.append(profile.serial)
            hours.append(int(hour))
            rows.append(np.asarray(row, dtype=np.float64).ravel())
    matrix = np.vstack(rows)
    size = 24
    return [(serials[i:i + size], hours[i:i + size], matrix[i:i + size])
            for i in range(0, len(serials), size)]


@pytest.fixture(scope="module")
def reference_lines(bundle, blocks):
    """The uninterrupted verdict stream every drill must reproduce: the
    per-sample oracle's, which one plain scorer also reproduces."""
    expected = oracle_lines(bundle, [
        sample for serials, hours, matrix in blocks
        for sample in zip(serials, hours, matrix)])
    scorer = StreamScorer(bundle)
    assert verdict_lines(
        [scorer.score_block(serials, hours, matrix)
         for serials, hours, matrix in blocks]) == expected
    return expected


def _wait_ready(partition, timeout):
    """Poll ``status()`` until the partition is not ``recovering``;
    ``False`` on timeout."""
    deadline = time.monotonic() + timeout
    while partition.status() == "recovering":
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)
    return True


# -- the kill plan itself ---------------------------------------------------

def test_kill_plan_is_deterministic_and_interior():
    first = kill_plan(20, 4, seed=11)
    assert first == kill_plan(20, 4, seed=11)
    assert len(first) == 4
    assert first == sorted(set(first))  # distinct kill points, in order
    assert all(1 <= position < 20 for position in first)
    assert first != kill_plan(20, 4, seed=12)


def test_kill_plan_validation():
    with pytest.raises(FaultInjectionError, match="n_kills"):
        kill_plan(10, -1)
    with pytest.raises(FaultInjectionError, match="one more block"):
        kill_plan(5, 5)


# -- byte identity through seeded kills -------------------------------------

@pytest.mark.parametrize("seed", [1, 2, 4])
def test_seeded_kills_keep_stream_byte_identical(bundle, blocks,
                                                 reference_lines, tmp_path,
                                                 seed):
    """The tentpole contract: kill → respawn → replay → identical bytes."""
    plan = kill_plan(len(blocks), 2, seed=seed)
    observer = TelemetryObserver()
    with ShardSet(bundle, wal_dir=tmp_path / "wal",
                  observer=observer) as partition:
        lines = run_chaos_stream(partition, blocks, plan,
                                 block_id_prefix=f"drill-{seed}")
        restarts = partition.restarts()
    assert lines == reference_lines
    assert restarts == len(plan)
    assert observer.metrics.counter("shard_restarts").value == len(plan)
    # Replay actually happened: the rebuilt partition re-read the log.
    assert observer.metrics.counter("wal_replayed_blocks").value > 0


def test_ack_gap_crash_is_exactly_once(bundle, blocks, reference_lines,
                                       tmp_path):
    """Die *after* the WAL append but *before* the reply.

    The hardest window: the block is durable but unacknowledged.  The
    retry must be served from the replayed dedup cache — scored once,
    answered once, bytes identical.
    """
    with ShardSet(bundle, wal_dir=tmp_path / "wal",
                  crash_after_seq=3) as partition:
        lines = run_chaos_stream(partition, blocks, block_id_prefix="gap")
        assert partition.restarts() == 1
    assert lines == reference_lines


def test_no_wal_shard_set_still_recovers_workers(bundle, blocks):
    """Without a WAL a killed partition is still rebuilt — state
    resets, it keeps serving (fresh-state verdicts, not an outage)."""
    with ShardSet(bundle) as partition:
        assert not partition.wal_enabled
        first = partition.submit_block(*blocks[0])
        assert len(first)
        lines = run_chaos_stream(partition, blocks[1:3], [0],
                                 block_id_prefix="nowal")
        assert len(lines) == len(blocks[1][0]) + len(blocks[2][0])
        assert partition.restarts() == 1


# -- resuming an abandoned WAL ----------------------------------------------

def test_fresh_shard_set_resumes_from_wal(bundle, blocks, reference_lines,
                                          tmp_path):
    """The first ShardSet dies with no drain and no final snapshot; a
    second ShardSet on the same WAL directory replays to the exact
    state, answers a retried block id from cache, and finishes the
    stream."""
    wal_dir = tmp_path / "wal"
    half = len(blocks) // 2
    first_lines: list[str] = []
    veteran = ShardSet(bundle, wal_dir=wal_dir)
    try:
        for index in range(half):
            block = veteran.submit_block(*blocks[index],
                                         block_id=f"resume-{index}")
            first_lines.extend(block.to_json_lines())
    finally:
        veteran.kill()
    observer = TelemetryObserver()
    with ShardSet(bundle, wal_dir=wal_dir,
                  observer=observer) as successor:
        assert _wait_ready(successor, 30.0)
        # The retried last block is deduplicated, not double-scored.
        retried = successor.submit_block(*blocks[half - 1],
                                         block_id=f"resume-{half - 1}")
        assert (retried.to_json_lines()
                == first_lines[-len(blocks[half - 1][0]):])
        for index in range(half, len(blocks)):
            block = successor.submit_block(*blocks[index],
                                           block_id=f"resume-{index}")
            first_lines.extend(block.to_json_lines())
    assert first_lines == reference_lines
    assert observer.metrics.counter("wal_replayed_blocks").value >= half


#: Child process owning a WAL-backed ShardSet: scores the blocks in its
#: input file, prints each block's verdict lines, then waits to be killed.
_CHILD_SCRIPT = """
import json, sys, time
import numpy as np
from repro.serve.bundle import load_bundle
from repro.serve.shard import ShardSet
bundle_path, blocks_path, wal_dir = sys.argv[1:4]
partition = ShardSet(load_bundle(bundle_path), wal_dir=wal_dir)
with open(blocks_path) as handle:
    blocks = json.load(handle)
for index, (serials, hours, rows) in enumerate(blocks):
    block = partition.submit_block(serials, hours,
                                np.asarray(rows, dtype=np.float64),
                                block_id=f"sigkill-{index}")
    sys.stdout.write("".join(line + "\\n" for line in block.to_json_lines()))
sys.stdout.write("scored\\n")
sys.stdout.flush()
time.sleep(600)
"""


def test_sigkilled_child_process_resumes_byte_identical(
        bundle, blocks, reference_lines, tmp_path):
    """A real SIGKILL: a child Python process owning a WAL-backed
    ShardSet is killed mid-stream with no drain and no final snapshot.
    A fresh ShardSet on its WAL directory answers the retried last
    block from dedup (scored once), finishes the stream, and the bytes
    equal the uninterrupted run."""
    wal_dir = tmp_path / "wal"
    half = len(blocks) // 2
    bundle_path = tmp_path / "bundle.json"
    save_bundle(bundle, bundle_path)
    blocks_path = tmp_path / "blocks.json"
    blocks_path.write_text(json.dumps([
        [list(serials), [int(hour) for hour in hours], matrix.tolist()]
        for serials, hours, matrix in blocks[:half]]))
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD_SCRIPT, str(bundle_path),
         str(blocks_path), str(wal_dir)],
        stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(120.0, child.kill)
    watchdog.start()
    try:
        first_lines = []
        for line in child.stdout:
            if line == "scored\n":
                break
            first_lines.append(line.rstrip("\n"))
        os.kill(child.pid, signal.SIGKILL)
        assert child.wait(timeout=30.0) == -signal.SIGKILL
    finally:
        watchdog.cancel()
        child.kill()
        child.stdout.close()
    assert first_lines == reference_lines[:len(first_lines)]

    with ShardSet(bundle, wal_dir=wal_dir) as successor:
        assert _wait_ready(successor, 30.0)
        retried = successor.submit_block(*blocks[half - 1],
                                         block_id=f"sigkill-{half - 1}")
        assert (retried.to_json_lines()
                == first_lines[-len(blocks[half - 1][0]):])
        for index in range(half, len(blocks)):
            block = successor.submit_block(*blocks[index],
                                           block_id=f"sigkill-{index}")
            first_lines.extend(block.to_json_lines())
        snapshot = successor.stop()
    assert first_lines == reference_lines
    # Scored once: the WAL replay plus the rest of the stream, with the
    # retried block answered from dedup rather than scored again.
    assert snapshot["samples_scored"] == len(reference_lines)


def test_drives_tracked_is_right_after_wal_recovery(bundle, blocks,
                                                   tmp_path):
    """The drive census comes from the replayed state: a fresh
    ShardSet on an old WAL, and a rebuilt partition, both report every
    drive admitted before — and re-admitting them adds none."""
    wal_dir = tmp_path / "wal"
    admitted = {serial for serials, _hours, _matrix in blocks[:4]
                for serial in serials}
    with ShardSet(bundle, wal_dir=wal_dir) as veteran:
        for index, block in enumerate(blocks[:4]):
            veteran.submit_block(*block, block_id=f"census-{index}")
    with ShardSet(bundle, wal_dir=wal_dir) as successor:
        assert _wait_ready(successor, 30.0)
        assert successor.drives_tracked() == len(admitted)
        successor.kill()
        assert _wait_ready(successor, 30.0)
        assert successor.status() == "serving"
        assert successor.drives_tracked() == len(admitted)
        successor.submit_block(*blocks[0], block_id="census-again")
        assert successor.drives_tracked() == len(admitted)


def test_stop_after_a_kill_returns_every_snapshot(bundle, blocks,
                                                  tmp_path):
    """A kill reports ``recovering`` at once; ``stop()`` waits out the
    replay and snapshots the rebuilt partition, state included."""
    partition = ShardSet(bundle, wal_dir=tmp_path / "wal")
    partition.submit_block(*blocks[0])
    partition.kill()
    assert partition.status() == "recovering"
    start = time.monotonic()
    snapshot = partition.stop()
    assert time.monotonic() - start < 5.0
    assert snapshot["samples_scored"] == len(blocks[0][0])
    assert snapshot["drives_tracked"] == len(set(blocks[0][0]))


def test_kill_replay_thread_is_gone_once_serving(bundle, blocks, tmp_path,
                                                 monkeypatch):
    """A kill's replay runs on one short-lived thread, which ends with
    the replay; outside a kill the set starts no thread."""
    started = []
    start_thread = threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        start_thread(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    with ShardSet(bundle, wal_dir=tmp_path / "wal") as partition:
        partition.submit_block(*blocks[0])
        assert started == []
        partition.kill()
        assert _wait_ready(partition, 30.0)
        assert partition.status() == "serving"
        assert [thread.name for thread in started] == ["repro-shard-replay"]
        started[0].join(timeout=5.0)
        assert not started[0].is_alive()


def test_stop_right_after_a_kill_does_not_hang(bundle, blocks, tmp_path):
    """A partition killed just before ``stop()`` is still drained: the
    stop waits for its replay instead of stalling."""
    partition = ShardSet(bundle, wal_dir=tmp_path / "wal")
    partition.submit_block(*blocks[0])
    start = time.monotonic()
    partition.kill()
    snapshot = partition.stop()
    assert time.monotonic() - start < 5.0
    assert snapshot["samples_scored"] == len(blocks[0][0])


def test_submit_to_failed_shard_is_serve_error(bundle, blocks, tmp_path):
    """A partition whose WAL cannot open reports failed, not
    recovering — and submits to it raise a terminal error."""
    wal_dir = tmp_path / "wal"
    (wal_dir / "shard-000").mkdir(parents=True)
    (wal_dir / "shard-000" / "wal.json").write_text("{not json")
    partition = ShardSet(bundle, wal_dir=wal_dir)
    try:
        assert partition.status().startswith("failed")
        with pytest.raises(ServeError, match="failed"):
            partition.submit_block(*blocks[0])
    finally:
        partition.stop()


def test_malformed_snapshot_fails_the_shard_promptly(bundle, blocks,
                                                     tmp_path):
    """A snapshot the state store refuses marks the partition failed
    (and names the bad drive) instead of leaving it recovering
    forever."""
    wal_dir = tmp_path / "wal"
    with ShardSet(bundle, wal_dir=wal_dir) as partition:
        for block in blocks[:3]:
            partition.submit_block(*block)
    snapshot = sorted((wal_dir / "shard-000").glob("snapshot-*.json"))[-1]
    document = json.loads(snapshot.read_text())
    state = document["state"]["state"]
    assert state["schema"] == 3
    first = sorted(state["drives"])[0]
    state["drives"][first]["level"] = 7
    snapshot.write_text(json.dumps(document))

    partition = ShardSet(bundle, wal_dir=wal_dir)
    try:
        start = time.monotonic()
        assert _wait_ready(partition, 10.0)
        assert time.monotonic() - start < 5.0
        status = partition.status()
        assert status.startswith("failed:")
        assert f"drive {first!r} has level 7" in status
    finally:
        partition.stop()


def test_legacy_two_shard_wal_is_refused_by_name(tmp_path, capsys):
    """A WAL directory in the multi-shard layout of earlier code is
    refused whole — by the daemon and by ``repro-serve recover`` — with
    a typed error naming the other shard's log; nothing replays."""
    bundle = load_bundle(LEGACY_WAL / "bundle.json")
    wal_dir = tmp_path / "wal"
    shutil.copytree(LEGACY_WAL / "wal", wal_dir)
    with pytest.raises(WalError, match="multi-shard layout .*shard-001"):
        ServingDaemon(bundle, wal_dir=wal_dir)
    assert serve_main(["recover", "--bundle",
                       str(LEGACY_WAL / "bundle.json"),
                       "--wal-dir", str(wal_dir)]) == 2
    error = capsys.readouterr().err
    assert error.startswith("error: ") and "shard-001" in error
    # Refused before anything opened: every file is as it was.
    for path in sorted((LEGACY_WAL / "wal").rglob("*")):
        copy = wal_dir / path.relative_to(LEGACY_WAL / "wal")
        assert copy.is_dir() if path.is_dir() \
            else copy.read_bytes() == path.read_bytes()


def test_legacy_two_shard_wal_recovers_byte_identical(tmp_path):
    """Served one log per daemon, as the refusal above tells an operator
    to, the legacy 2-shard WAL recovers.  Each log — schema-2
    snapshots, which held each drive's row, clock and record count,
    plus a logged suffix and no final checkpoint — restores on its own
    as a partition's ``shard-000``: to the levels its shard held,
    checkpointed as schema 3, and the next blocks score exactly as a
    fresh scorer and that earlier code did.  The two partitions
    together hold every drive the WAL held."""
    expected = json.loads((LEGACY_WAL / "expected.json").read_text())
    bundle = load_bundle(LEGACY_WAL / "bundle.json")
    ring = HashRing(2)

    def schemas(wal_dir):
        return [json.loads(path.read_text())["state"]["state"]["schema"]
                for path in sorted(wal_dir.glob("shard-000/snapshot-*"))]

    levels: dict[str, str] = {}
    for shard in (0, 1):
        wal_dir = tmp_path / f"wal-{shard}"
        shutil.copytree(LEGACY_WAL / "wal" / f"shard-{shard:03d}",
                        wal_dir / "shard-000")
        assert schemas(wal_dir) == [2]
        final = ShardSet(bundle, wal_dir=wal_dir).stop()
        held = {serial: entry["level"]
                for serial, entry in final["state"]["drives"].items()}
        assert held == {serial: level
                        for serial, level in expected["levels"].items()
                        if ring.shard_of(serial) == shard}
        assert final["drives_tracked"] == len(held)
        assert schemas(wal_dir) == [3]
        levels.update(held)
    assert levels == expected["levels"]
    assert len(levels) == expected["drives_tracked"]

    fresh = StreamScorer(bundle)
    lines, fresh_lines = [], []
    with ShardSet(bundle, wal_dir=tmp_path / "wal-0") as reopened:
        assert reopened.drives_tracked() == sum(
            ring.shard_of(serial) == 0 for serial in expected["levels"])
        for index, block in enumerate(expected["next_blocks"]):
            columns = (block["serials"], block["hours"],
                       np.asarray(block["rows"], dtype=np.float64))
            lines.extend(reopened.submit_block(
                *columns, block_id=f"next-{index}").to_json_lines())
            fresh_lines.extend(fresh.score_block(*columns).to_json_lines())
    assert lines == fresh_lines
    assert hashlib.sha256("".join(f"{line}\n" for line in lines)
                          .encode()).hexdigest() \
        == expected["next_verdicts_sha256"]


def test_recover_cli_reports_what_a_restarted_shard_resumes(bundle, blocks,
                                                           tmp_path, capsys):
    """A logged block that fails to score (a non-finite block written
    before the finite check existed) is skipped by ``repro-serve
    recover`` exactly as a restarted partition skips it: the summary's
    counters are the restarted partition's, and a retry under the bad
    block id answers the refusal it cached."""
    wal_dir = tmp_path / "wal"
    with ShardSet(bundle, wal_dir=wal_dir) as partition:
        partition.submit_block(*blocks[0], block_id="b0")
    bundle_sha = content_hash(bundle.to_payload())
    serials, hours, matrix = blocks[1]
    poisoned = np.array(matrix, dtype=np.float64)
    poisoned[0, 0] = float("nan")
    with ShardWal(wal_dir / "shard-000", bundle_sha256=bundle_sha,
                  generation=bundle.generation) as wal:
        wal.open()
        wal.append(encode_block("bad", serials, hours, poisoned))
        wal.append(encode_block("b2", *blocks[2]))
    bundle_path = tmp_path / "fleet.bundle.json"
    save_bundle(bundle, bundle_path)

    assert serve_main(["recover", "--bundle", str(bundle_path),
                       "--wal-dir", str(wal_dir)]) == 0
    summary = json.loads(capsys.readouterr().out)["wal"]
    assert summary["directory"] == str(wal_dir / "shard-000")
    assert summary["replayed_blocks"] == 2
    assert summary["samples_scored"] == len(blocks[0][0]) + len(blocks[2][0])

    restarted = ShardSet(bundle, wal_dir=wal_dir)
    try:
        assert _wait_ready(restarted, 10.0)
        with pytest.raises(ServeError,
                           match="^scoring failed: .* is not finite"):
            restarted.submit_block(serials, hours, matrix, block_id="bad")
    finally:
        final = restarted.stop()
    assert {key: summary[key] for key in
            ("samples_scored", "alerts_emitted", "drives_tracked")} == {
        key: final[key] for key in
        ("samples_scored", "alerts_emitted", "drives_tracked")}


# -- HTTP surface during recovery -------------------------------------------

def test_recovering_shard_answers_503_and_degraded_health(bundle, blocks,
                                                          tmp_path):
    with ServingDaemon(bundle, wal_dir=tmp_path / "wal",
                       snapshot_interval_blocks=10_000) as daemon:
        # Build up enough WAL suffix that replay is observable.
        for index, (serials, hours, matrix) in enumerate(blocks):
            daemon.ingest_block(serials, hours, matrix,
                                block_id=f"http-{index}")
        serials, hours, matrix = blocks[0]
        body = json.dumps({"samples": [
            [serial, int(hour), [float(value) for value in row]]
            for serial, hour, row in zip(serials[:4], hours, matrix)]}
        ).encode("utf-8")
        daemon.partition.kill()
        # The killed partition reports recovering at once, so this
        # batch must come back 503, never hang or score.
        status, headers, text = _post(
            daemon.url + "/ingest?batch=retry-me", body)
        assert status == 503
        assert float(headers["Retry-After"]) > 0
        assert sorted(json.loads(text)) == ["error", "retry_after_s"]
        health_status, _ctype, health_body = _get(daemon.url + "/health")
        health = json.loads(health_body)
        if health["status"] == "degraded":  # replay still in progress
            assert health_status == 503
            assert health["partition"] == "recovering"
        # Recovery completes; the same batch then scores normally.
        deadline = time.monotonic() + 30.0
        while True:
            status, headers, _text = _post(
                daemon.url + "/ingest?batch=retry-me", body)
            if status == 200:
                break
            assert status == 503
            assert time.monotonic() < deadline, "never recovered"
            time.sleep(0.05)
        health = json.loads(_get(daemon.url + "/health")[2])
        assert health["status"] == "ok"
        assert health["partition"] == "serving"
        assert "shards" not in health
        assert health["wal"] is True
        doc = json.loads(_get(daemon.url + "/status")[2])
        assert doc["restarts"] == 1
        assert doc["partition"] == "serving"
        assert doc["wal"] == {"enabled": True,
                              "dir": str(tmp_path / "wal")}
        recovering = daemon.registry.counter(
            "ingest_requests", labels={"outcome": "recovering"}).value
        assert recovering >= 1


def test_blackhole_sink_attempts_are_counted():
    from tests.test_serve_sinks import _line

    sink = BlackholeSink()
    for _ in range(3):
        with pytest.raises(SinkError, match="blackhole"):
            sink.emit(_line())
    assert sink.attempts == 3
    assert sink.describe() == "blackhole"
