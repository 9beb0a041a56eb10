"""Whole-daemon chaos drill: SIGKILL ``repro-serve daemon``, recover, diff.

The in-process kill drills live in the tier-1 recovery suite; this
bench kills the *entire serving process* with SIGKILL at a seeded point
mid-stream — no drain, no final snapshot, alert sink hard-down the
whole time — then restarts it on the same WAL directory and dead-letter
file.  The pinned claims:

* the client-collected verdict stream (first daemon's replies plus the
  restarted daemon's) is byte-identical to an uninterrupted
  ``repro-serve score`` run;
* the dead-letter file holds exactly the alerting subset, in stream
  order, byte-identical lines — nothing lost in the crash, nothing
  duplicated by recovery;
* ``repro-serve recover --dead-letter`` flushes the parked alerts
  through a healthy sink byte-for-byte and leaves the file empty.
"""

from __future__ import annotations

import csv
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from urllib.request import Request, urlopen

import numpy as np
import pytest

from repro.serve.bundle import build_bundle, save_bundle
from repro.serve.cli import main as serve_main

BLOCK_SIZE = 48

#: The sink every daemon in this drill is configured with: nothing
#: listens on the discard port, and the tiny timeout keeps each refused
#: delivery attempt instant.
DEAD_SINK = "webhook:http://127.0.0.1:9/hook|timeout=0.2"


@pytest.fixture(scope="module")
def chaos_bundle(bench_report):
    return build_bundle(bench_report)


@pytest.fixture(scope="module")
def chaos_bundle_path(chaos_bundle, tmp_path_factory):
    path = tmp_path_factory.mktemp("chaos") / "fleet.bundle.json"
    save_bundle(chaos_bundle, path)
    return path


@pytest.fixture(scope="module")
def sample_rows(bench_fleet):
    """A small mixed stream: enough blocks for an interior kill point."""
    dataset = bench_fleet.dataset
    profiles = dataset.failed_profiles[:4] + dataset.good_profiles[:10]
    rows = []
    for profile in profiles:
        keep = None if profile.failed else 8
        for hour, row in zip(profile.hours[:keep], profile.matrix[:keep]):
            rows.append((profile.serial, int(hour),
                         [float(v) for v in row]))
    return rows


@pytest.fixture(scope="module")
def score_reference(chaos_bundle, chaos_bundle_path, sample_rows,
                    tmp_path_factory):
    """Uninterrupted ``repro-serve score`` bytes for the sample stream."""
    root = tmp_path_factory.mktemp("chaos-golden")
    stream = root / "stream.csv"
    with open(stream, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["serial", "hour", *chaos_bundle.attributes])
        for serial, hour, values in sample_rows:
            writer.writerow([serial, hour, *(repr(v) for v in values)])
    output = root / "score.jsonl"
    assert serve_main(["score", "--bundle", str(chaos_bundle_path),
                       "--input", str(stream),
                       "--output", str(output)]) == 0
    return output.read_bytes()


def _blocks(rows):
    return [rows[i:i + BLOCK_SIZE]
            for i in range(0, len(rows), BLOCK_SIZE)]


def _post(url, body=b""):
    with urlopen(Request(url, data=body, method="POST"),
                 timeout=30) as response:
        return response.status, response.read()


def _spawn_daemon(bundle_path, port_file, wal_dir, dead_letter):
    """Launch ``repro-serve daemon`` as a real killable OS process."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = (f"{src}:{env['PYTHONPATH']}"
                         if env.get("PYTHONPATH") else str(src))
    return subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from repro.serve.cli import main; "
         "sys.exit(main(sys.argv[1:]))",
         "daemon", "--bundle", str(bundle_path),
         "--port", "0", "--port-file", str(port_file),
         "--wal-dir", str(wal_dir), "--dead-letter", str(dead_letter),
         "--snapshot-interval-blocks", "4", "--alert-sink", DEAD_SINK],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _await_url(port_file, process, deadline_s=60.0):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise AssertionError(
                f"daemon exited early with {process.returncode}")
        if port_file.exists() and port_file.read_text().strip():
            return f"http://127.0.0.1:{int(port_file.read_text())}"
        time.sleep(0.05)
    raise AssertionError("daemon never wrote its port file")


def _await_dead_letter(path, n_lines, deadline_s=120.0):
    """Wait for the delivery pipeline to park ``n_lines`` alerts."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        have = (len(path.read_text().splitlines()) if path.exists() else 0)
        if have >= n_lines:
            return
        time.sleep(0.05)
    raise AssertionError(
        f"dead letter never reached {n_lines} lines")


def _alerting(lines):
    return [line for line in lines
            if json.loads(line)["level"] != "HEALTHY"]


@pytest.mark.tier2
def test_daemon_sigkill_recovery_byte_identical(chaos_bundle_path,
                                                sample_rows,
                                                score_reference, tmp_path):
    blocks = _blocks(sample_rows)
    reference_lines = score_reference.decode("utf-8").splitlines()
    block_lines = _blocks(reference_lines)
    assert len(blocks) >= 4, "stream too short for an interior kill"
    rng = np.random.default_rng(2026)
    kill_before = int(rng.integers(1, len(blocks)))

    wal_dir = tmp_path / "wal"
    dead_letter = tmp_path / "dead.jsonl"
    collected: list[str] = []

    def ingest(url, index):
        body = json.dumps({"samples": blocks[index]}).encode("utf-8")
        status, reply = _post(
            url + f"/ingest?verdicts=all&batch=chaos-{index}", body)
        assert status == 200
        collected.extend(reply.decode("utf-8").splitlines())

    first = _spawn_daemon(chaos_bundle_path, tmp_path / "port1",
                          wal_dir, dead_letter)
    try:
        url = _await_url(tmp_path / "port1", first)
        for index in range(kill_before):
            ingest(url, index)
        # Let delivery quiesce, then kill with no warning whatsoever.
        parked = sum(len(_alerting(lines))
                     for lines in block_lines[:kill_before])
        _await_dead_letter(dead_letter, parked)
        first.send_signal(signal.SIGKILL)
        first.wait(timeout=30)
    finally:
        if first.poll() is None:
            first.kill()

    second = _spawn_daemon(chaos_bundle_path, tmp_path / "port2",
                           wal_dir, dead_letter)
    try:
        url = _await_url(tmp_path / "port2", second)
        for index in range(kill_before, len(blocks)):
            ingest(url, index)
        expected_parked = len(_alerting(reference_lines))
        _await_dead_letter(dead_letter, expected_parked)
        _post(url + "/drain")
        assert second.wait(timeout=60) == 0
    finally:
        if second.poll() is None:
            second.kill()

    # Claim 1: the stitched verdict stream is the uninterrupted stream.
    assert collected == reference_lines

    # Claim 2: the dead letter is exactly the alerting subset, in order.
    assert (dead_letter.read_text().splitlines()
            == _alerting(reference_lines))

    # Claim 3: recover --dead-letter flushes it byte-for-byte.
    flushed = tmp_path / "flushed.jsonl"
    assert serve_main(["recover", "--dead-letter", str(dead_letter),
                       "--alert-sink", f"jsonl:{flushed}"]) == 0
    assert flushed.read_text().splitlines() == _alerting(reference_lines)
    assert dead_letter.read_text() == ""
