"""Crash-recovery tests: kill shards, replay the WAL, compare bytes.

The robustness acceptance criteria live here: a shard killed at seeded
points (:meth:`~repro.serve.shard.ShardSet.kill_shard`) is rebuilt
from snapshot + WAL suffix into byte-identical state, and the
surviving verdict stream matches an uninterrupted run exactly — at
shard counts 1, 2 and 4, including the ack gap (WAL-appended but
unanswered) via the ``crash_after_seq`` chaos hook.  A fresh
:class:`~repro.serve.shard.ShardSet` on an abandoned WAL directory —
including one left by a SIGKILLed child process — resumes the stream,
serving retried block ids from the dedup cache.  Over HTTP, a recovering shard's drives answer 503 with
``Retry-After`` while ``/health`` reports ``degraded``, and both return
to normal once replay finishes.
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

from repro.errors import FaultInjectionError, ServeError, SinkError
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
from repro.serve.shard import ShardSet
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
    per-sample oracle's, which one unsharded scorer also reproduces."""
    expected = oracle_lines(bundle, [
        sample for serials, hours, matrix in blocks
        for sample in zip(serials, hours, matrix)])
    scorer = StreamScorer(bundle)
    assert verdict_lines(
        [scorer.score_block(serials, hours, matrix)
         for serials, hours, matrix in blocks]) == expected
    return expected


def _wait_ready(shards, timeout):
    """Poll ``shard_status()`` until no shard is ``recovering``;
    ``False`` on timeout."""
    deadline = time.monotonic() + timeout
    while "recovering" in shards.shard_status():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)
    return True


# -- the kill plan itself ---------------------------------------------------

def test_kill_plan_is_deterministic_and_interior():
    first = kill_plan(20, 4, 3, seed=11)
    assert first == kill_plan(20, 4, 3, seed=11)
    assert len(first) == 4
    positions = [position for position, _shard in first]
    assert len(set(positions)) == 4  # distinct kill points
    assert all(1 <= position < 20 for position in positions)
    assert all(0 <= shard < 3 for _position, shard in first)
    assert first != kill_plan(20, 4, 3, seed=12)


def test_kill_plan_validation():
    with pytest.raises(FaultInjectionError, match="n_kills"):
        kill_plan(10, -1, 2)
    with pytest.raises(FaultInjectionError, match="n_shards"):
        kill_plan(10, 1, 0)
    with pytest.raises(FaultInjectionError, match="one more block"):
        kill_plan(5, 5, 2)


def test_chaos_stream_rejects_out_of_range_shard(bundle, blocks, tmp_path):
    with ShardSet(bundle, n_shards=1, wal_dir=tmp_path / "wal") as shards:
        with pytest.raises(FaultInjectionError, match="names shard 7"):
            run_chaos_stream(shards, blocks[:2], [(1, 7)])


# -- byte identity through seeded kills -------------------------------------

@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_seeded_kills_keep_stream_byte_identical(bundle, blocks,
                                                 reference_lines, tmp_path,
                                                 n_shards):
    """The tentpole contract: kill → respawn → replay → identical bytes."""
    plan = kill_plan(len(blocks), 2, n_shards, seed=n_shards)
    observer = TelemetryObserver()
    with ShardSet(bundle, n_shards=n_shards,
                  wal_dir=tmp_path / f"wal-{n_shards}", wal_fsync_every=1,
                  observer=observer) as shards:
        lines = run_chaos_stream(shards, blocks, plan,
                                 block_id_prefix=f"drill-{n_shards}")
        restarts = shards.shard_restarts()
    assert lines == reference_lines
    assert sum(restarts) == len(plan)
    assert observer.metrics.counter("shard_restarts").value == len(plan)
    # Replay actually happened: the rebuilt shards re-read the log.
    assert observer.metrics.counter("wal_replayed_blocks").value > 0


def test_ack_gap_crash_is_exactly_once(bundle, blocks, reference_lines,
                                       tmp_path):
    """Die *after* the WAL append but *before* the reply.

    The hardest window: the block is durable but unacknowledged.  The
    retry must be served from the replayed dedup cache — scored once,
    answered once, bytes identical.
    """
    with ShardSet(bundle, n_shards=1, wal_dir=tmp_path / "wal",
                  wal_fsync_every=1, crash_after_seq={0: 3}) as shards:
        lines = run_chaos_stream(shards, blocks, block_id_prefix="gap")
        assert shards.shard_restarts() == [1]
    assert lines == reference_lines


def test_no_wal_shard_set_still_recovers_workers(bundle, blocks):
    """Without a WAL a killed shard is still rebuilt — state resets,
    the plane keeps serving (fresh-state verdicts, not an outage)."""
    with ShardSet(bundle, n_shards=1) as shards:
        assert not shards.wal_enabled
        first = shards.submit_block(*blocks[0])
        assert len(first)
        lines = run_chaos_stream(shards, blocks[1:3], [(0, 0)],
                                 block_id_prefix="nowal")
        assert len(lines) == len(blocks[1][0]) + len(blocks[2][0])
        assert shards.shard_restarts() == [1]


# -- resuming an abandoned WAL ----------------------------------------------

def test_fresh_shard_set_resumes_from_wal(bundle, blocks, reference_lines,
                                          tmp_path):
    """The first ShardSet's shards die with no drain and no final
    snapshot; a second ShardSet on the same WAL directory replays to
    the exact state, answers a retried block id from cache, and
    finishes the stream."""
    wal_dir = tmp_path / "wal"
    half = len(blocks) // 2
    first_lines: list[str] = []
    veteran = ShardSet(bundle, n_shards=2, wal_dir=wal_dir,
                       wal_fsync_every=1)
    try:
        for index in range(half):
            block = veteran.submit_block(*blocks[index],
                                         block_id=f"resume-{index}")
            first_lines.extend(block.to_json_lines())
    finally:
        for shard in range(2):
            veteran.kill_shard(shard)
    observer = TelemetryObserver()
    with ShardSet(bundle, n_shards=2, wal_dir=wal_dir,
                  wal_fsync_every=1, observer=observer) as successor:
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
from repro.serve.wal import ShardWal, encode_block
bundle_path, blocks_path, wal_dir = sys.argv[1:4]
shards = ShardSet(load_bundle(bundle_path), n_shards=2, wal_dir=wal_dir,
                  wal_fsync_every=1)
with open(blocks_path) as handle:
    blocks = json.load(handle)
for index, (serials, hours, rows) in enumerate(blocks):
    block = shards.submit_block(serials, hours,
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

    with ShardSet(bundle, n_shards=2, wal_dir=wal_dir,
                  wal_fsync_every=1) as successor:
        assert _wait_ready(successor, 30.0)
        retried = successor.submit_block(*blocks[half - 1],
                                         block_id=f"sigkill-{half - 1}")
        assert (retried.to_json_lines()
                == first_lines[-len(blocks[half - 1][0]):])
        for index in range(half, len(blocks)):
            block = successor.submit_block(*blocks[index],
                                           block_id=f"sigkill-{index}")
            first_lines.extend(block.to_json_lines())
        snapshots = successor.stop()
    assert first_lines == reference_lines
    # Scored once: the WAL replay plus the rest of the stream, with the
    # retried block answered from dedup rather than scored again.
    assert (sum(snapshot["samples_scored"] for snapshot in snapshots)
            == len(reference_lines))


def test_drives_tracked_is_right_after_wal_recovery(bundle, blocks,
                                                   tmp_path):
    """The set's drive census is reseeded from each shard's replayed
    state: a fresh ShardSet on an old WAL, and a rebuilt shard, both
    report every drive admitted before — and re-admitting them adds
    none."""
    wal_dir = tmp_path / "wal"
    admitted = {serial for serials, _hours, _matrix in blocks[:4]
                for serial in serials}
    with ShardSet(bundle, n_shards=2, wal_dir=wal_dir) as veteran:
        for index, block in enumerate(blocks[:4]):
            veteran.submit_block(*block, block_id=f"census-{index}")
    with ShardSet(bundle, n_shards=2, wal_dir=wal_dir) as successor:
        assert _wait_ready(successor, 30.0)
        assert successor.drives_tracked() == len(admitted)
        successor.kill_shard(0)
        deadline = time.monotonic() + 30.0
        while ((successor.shard_restarts()[0] == 0
                or successor.shard_status()[0] != "serving")
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert successor.shard_status()[0] == "serving"
        successor.submit_block(*blocks[0], block_id="census-again")
        assert successor.drives_tracked() == len(admitted)


def test_stop_after_a_kill_returns_every_snapshot(bundle, blocks,
                                                  tmp_path):
    """A kill reports ``recovering`` at once; ``stop()`` waits out the
    replay and snapshots the rebuilt shard, state included."""
    shards = ShardSet(bundle, n_shards=2, wal_dir=tmp_path / "wal")
    shards.submit_block(*blocks[0])
    shards.kill_shard(0)
    assert shards.shard_status()[0] == "recovering"
    start = time.monotonic()
    snapshots = shards.stop()
    assert time.monotonic() - start < 5.0
    assert len(snapshots) == 2
    assert (sum(snapshot["samples_scored"] for snapshot in snapshots)
            == len(blocks[0][0]))


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
    with ShardSet(bundle, n_shards=2, wal_dir=tmp_path / "wal") as shards:
        shards.submit_block(*blocks[0])
        assert started == []
        shards.kill_shard(1)
        assert _wait_ready(shards, 30.0)
        assert shards.shard_status() == ["serving", "serving"]
        assert [thread.name for thread in started] == ["repro-shard-1-replay"]
        started[0].join(timeout=5.0)
        assert not started[0].is_alive()


def test_stop_right_after_a_kill_does_not_hang(bundle, blocks, tmp_path):
    """A shard killed just before ``stop()`` is still drained: the
    stop waits for its replay instead of stalling."""
    shards = ShardSet(bundle, n_shards=2, wal_dir=tmp_path / "wal")
    shards.submit_block(*blocks[0])
    start = time.monotonic()
    shards.kill_shard(0)
    snapshots = shards.stop()
    assert time.monotonic() - start < 5.0
    assert len(snapshots) == 2


def test_submit_to_failed_shard_is_serve_error(bundle, blocks, tmp_path):
    """A shard whose WAL cannot open reports failed, not recovering —
    and submits targeting it raise a terminal error."""
    wal_dir = tmp_path / "wal"
    (wal_dir / "shard-000").mkdir(parents=True)
    (wal_dir / "shard-000" / "wal.json").write_text("{not json")
    shards = ShardSet(bundle, n_shards=1, wal_dir=wal_dir)
    try:
        deadline = time.monotonic() + 10.0
        while (not shards.shard_status()[0].startswith("failed")
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert shards.shard_status()[0].startswith("failed")
        with pytest.raises(ServeError, match="failed"):
            shards.submit_block(*blocks[0])
    finally:
        shards.stop()


def test_malformed_snapshot_fails_the_shard_promptly(bundle, blocks,
                                                     tmp_path):
    """A snapshot the state store refuses marks the shard failed (and
    names the bad drive) instead of leaving it recovering forever."""
    wal_dir = tmp_path / "wal"
    with ShardSet(bundle, n_shards=1, wal_dir=wal_dir) as shards:
        for block in blocks[:3]:
            shards.submit_block(*block)
    snapshot = sorted((wal_dir / "shard-000").glob("snapshot-*.json"))[-1]
    document = json.loads(snapshot.read_text())
    state = document["state"]["state"]
    assert state["schema"] == 3
    first = sorted(state["drives"])[0]
    state["drives"][first]["level"] = 7
    snapshot.write_text(json.dumps(document))

    shards = ShardSet(bundle, n_shards=1, wal_dir=wal_dir)
    try:
        start = time.monotonic()
        assert _wait_ready(shards, 10.0)
        assert time.monotonic() - start < 5.0
        status = shards.shard_status()[0]
        assert status.startswith("failed:")
        assert f"drive {first!r} has level 7" in status
    finally:
        shards.stop()


def test_legacy_two_shard_wal_recovers_byte_identical(tmp_path):
    """A 2-shard WAL left by earlier code — schema-2 snapshots, which
    held each drive's row, clock and record count, plus a logged suffix
    and no final checkpoint — recovers to the levels and drive count it
    held, checkpoints as schema 3, and scores the next blocks exactly as
    a fresh scorer and that earlier code did."""
    expected = json.loads((LEGACY_WAL / "expected.json").read_text())
    bundle = load_bundle(LEGACY_WAL / "bundle.json")
    wal_dir = tmp_path / "wal"
    shutil.copytree(LEGACY_WAL / "wal", wal_dir)

    def snapshot_schemas():
        return [json.loads(path.read_text())["state"]["state"]["schema"]
                for path in sorted(wal_dir.glob("shard-*/snapshot-*.json"))]

    assert snapshot_schemas() == [2, 2]
    shards = ShardSet(bundle, n_shards=2, wal_dir=wal_dir)
    assert shards.shard_status() == ["serving", "serving"]
    assert shards.drives_tracked() == expected["drives_tracked"]
    final = shards.stop()
    assert sum(shard["drives_tracked"] for shard in final) \
        == expected["drives_tracked"]
    levels = {serial: entry["level"] for shard in final
              for serial, entry in shard["state"]["drives"].items()}
    assert levels == expected["levels"]
    assert snapshot_schemas() == [3, 3]

    fresh = StreamScorer(bundle)
    lines, fresh_lines = [], []
    with ShardSet(bundle, n_shards=2, wal_dir=wal_dir) as reopened:
        assert reopened.drives_tracked() == expected["drives_tracked"]
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
    recover`` exactly as a restarted shard skips it: the summary's
    counters are the restarted shard's, and a retry under the bad block
    id answers the refusal the shard cached."""
    wal_dir = tmp_path / "wal"
    with ShardSet(bundle, n_shards=1, wal_dir=wal_dir) as shards:
        shards.submit_block(*blocks[0], block_id="b0")
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
    (summary,) = json.loads(capsys.readouterr().out)["wal"]["shards"]
    assert summary["replayed_blocks"] == 2
    assert summary["samples_scored"] == len(blocks[0][0]) + len(blocks[2][0])

    restarted = ShardSet(bundle, n_shards=1, wal_dir=wal_dir)
    try:
        assert _wait_ready(restarted, 10.0)
        with pytest.raises(ServeError, match="shard scoring failed: "
                                             "shard 0: .* is not finite"):
            restarted.submit_block(serials, hours, matrix, block_id="bad")
    finally:
        (final,) = restarted.stop()
    assert {key: summary[key] for key in
            ("samples_scored", "alerts_emitted", "drives_tracked")} == {
        key: final[key] for key in
        ("samples_scored", "alerts_emitted", "drives_tracked")}


# -- HTTP surface during recovery -------------------------------------------

def _shard_batch(daemon, blocks, shard):
    """A small ingest body whose serials all route to ``shard``."""
    samples = []
    for serials, hours, matrix in blocks:
        for serial, hour, row in zip(serials, hours, matrix):
            if daemon.shards.shard_of(serial) == shard:
                samples.append([serial, int(hour),
                                [float(value) for value in row]])
        if samples:
            break
    assert samples, "no sample routed to the target shard"
    return json.dumps({"samples": samples}).encode("utf-8")


def test_recovering_shard_answers_503_and_degraded_health(bundle, blocks,
                                                          tmp_path):
    with ServingDaemon(bundle, n_shards=2, wal_dir=tmp_path / "wal",
                       snapshot_interval_blocks=10_000) as daemon:
        # Build up enough WAL suffix that replay is observable.
        for index, (serials, hours, matrix) in enumerate(blocks):
            daemon.ingest_block(serials, hours, matrix,
                                block_id=f"http-{index}")
        target = 0
        body = _shard_batch(daemon, blocks, target)
        daemon.shards.kill_shard(target)
        # The killed shard reports recovering at once, so this batch
        # must come back 503, never hang or score.
        status, headers, _text = _post(
            daemon.url + "/ingest?batch=retry-me", body)
        assert status == 503
        assert float(headers["Retry-After"]) > 0
        health_status, _ctype, health_body = _get(daemon.url + "/health")
        health = json.loads(health_body)
        if health["status"] == "degraded":  # replay still in progress
            assert health_status == 503
            assert "recovering" in health["shards"]
        # Recovery completes; the same batch then scores normally.
        deadline = time.monotonic() + 30.0
        while True:
            status, headers, _text = _post(
                daemon.url + "/ingest?batch=retry-me", body)
            if status == 200:
                break
            assert status == 503
            assert time.monotonic() < deadline, "shard never recovered"
            time.sleep(0.05)
        health = json.loads(_get(daemon.url + "/health")[2])
        assert health["status"] == "ok"
        assert health["shards"] == ["serving", "serving"]
        assert health["wal"] is True
        doc = json.loads(_get(daemon.url + "/status")[2])
        assert doc["shard_restarts"] == [1, 0]
        assert doc["shard_status"] == ["serving", "serving"]
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
