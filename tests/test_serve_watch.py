"""Tests for watch mode: the serving daemon fed from a CSV stream.

``repro-serve watch`` is a one-shard :class:`ServingDaemon` whose
batches come from a file instead of ``POST /ingest``.  Pinned here: a
concurrent HTTP client scrapes ``/metrics``, ``/health`` and
``/status`` *while* the stream scores; the flight recorder retains the
last alerts; watched verdicts are byte-identical to the scalar oracle
and to ``repro-serve score`` — telemetry observes scoring, it never
participates.
"""

import csv
import json
import re
import threading
import time

import numpy as np
import pytest

from repro.obs.recorder import FlightRecorder
from repro.serve.bundle import (
    build_bundle,
    content_hash,
    load_bundle,
    save_bundle,
)
from repro.serve.cli import main as serve_main
from repro.serve.daemon import DEFAULT_STATUS_TAIL, ServingDaemon

from tests.oracle import oracle_lines
from tests.test_obs_http import _get, _post


@pytest.fixture(scope="module")
def loaded_bundle(mid_report, tmp_path_factory):
    bundle = build_bundle(mid_report, seed=7)
    path = tmp_path_factory.mktemp("watch") / "fleet.bundle.json"
    save_bundle(bundle, path)
    return load_bundle(path)


@pytest.fixture(scope="module")
def bundle_path(loaded_bundle, tmp_path_factory):
    path = tmp_path_factory.mktemp("watch-cli") / "fleet.bundle.json"
    save_bundle(loaded_bundle, path)
    return path


@pytest.fixture(scope="module")
def stream_samples(mid_fleet):
    """Raw samples from failed + good drives, flat and batchable."""
    dataset = mid_fleet.dataset
    profiles = dataset.failed_profiles[:4] + dataset.good_profiles[:4]
    samples = [
        (profile.serial, int(hour), row)
        for profile in profiles
        for hour, row in zip(profile.hours, profile.matrix)
    ]
    return profiles, samples


@pytest.fixture(scope="module")
def stream_csv(loaded_bundle, stream_samples, tmp_path_factory):
    """The stream samples as a ``serial,hour,<attributes>`` CSV."""
    _profiles, samples = stream_samples
    path = tmp_path_factory.mktemp("watch-stream") / "stream.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["serial", "hour", *loaded_bundle.attributes])
        for serial, hour, row in samples:
            writer.writerow([serial, hour, *(repr(float(v)) for v in row)])
    return path


def _batches(samples, size=64):
    """Column blocks ``(serials, hours, matrix)`` for ``ingest_block``."""
    return [([serial for serial, _, _ in batch],
             [hour for _, hour, _ in batch],
             np.vstack([row for _, _, row in batch]))
            for batch in (samples[i:i + size]
                          for i in range(0, len(samples), size))]


def test_watch_verdicts_byte_identical_to_offline_replay(
        loaded_bundle, bundle_path, stream_samples, stream_csv, tmp_path):
    """Watch output equals the per-sample oracle, whatever the batch size."""
    _profiles, samples = stream_samples
    expected = "".join(line + "\n"
                       for line in oracle_lines(loaded_bundle, samples))
    for batch_size in ("1", "64", "5000"):
        out = tmp_path / f"watch-{batch_size}.jsonl"
        assert serve_main(["watch", "--bundle", str(bundle_path),
                           "--input", str(stream_csv),
                           "--output", str(out),
                           "--batch-size", batch_size]) == 0
        assert out.read_text() == expected


def test_concurrent_scrapes_while_scoring(loaded_bundle, bundle_path,
                                          stream_samples, stream_csv,
                                          tmp_path):
    """The acceptance scenario: scrape all three endpoints from another
    thread while ``repro-serve watch`` streams a file."""
    _profiles, samples = stream_samples
    port_file = tmp_path / "port.txt"
    outcome = {}

    def watch():
        outcome["status"] = serve_main([
            "watch", "--bundle", str(bundle_path),
            "--input", str(stream_csv),
            "--output", str(tmp_path / "watch.jsonl"),
            "--port-file", str(port_file),
            "--batch-size", "64", "--throttle", "0.03", "--linger", "1"])

    thread = threading.Thread(target=watch, daemon=True)
    thread.start()
    deadline = time.monotonic() + 30.0
    while not port_file.exists() and time.monotonic() < deadline:
        time.sleep(0.005)
    url = f"http://127.0.0.1:{int(port_file.read_text())}"

    scrapes = []
    scored = []
    accepted = []
    while thread.is_alive():
        try:
            replies = {endpoint: _get(url + endpoint)
                       for endpoint in ("/metrics", "/health", "/status")}
        except OSError:
            break  # the linger ended between the liveness check and a GET
        scrapes.append(replies)
        match = re.search(r"^repro_samples_scored_total (\d+)$",
                          replies["/metrics"][2], re.MULTILINE)
        if match:
            scored.append(int(match.group(1)))
        accepted.append(json.loads(replies["/status"][2])
                        ["samples_accepted"])
    thread.join(timeout=30)
    assert not thread.is_alive()

    assert outcome["status"] == 0
    assert len(scrapes) >= 3
    assert all(status == 200
               for replies in scrapes for status, _c, _b in replies.values())
    health = json.loads(scrapes[-1]["/health"][2])
    assert health["status"] == "ok"
    assert health["bundle_sha256"] == content_hash(loaded_bundle.to_payload())
    assert health["partition"] == "serving"
    # Live: some scrape landed mid-stream, and the count only grew.
    assert any(0 < count < len(samples) for count in accepted)
    assert scored == sorted(scored) and scored[-1] == len(samples)
    final_status = json.loads(scrapes[-1]["/status"][2])
    assert final_status["partition"] == "serving"
    assert final_status["samples_accepted"] == len(samples)
    assert final_status["alerts_emitted"] > 0
    assert final_status["flight_recorder"]["total_recorded"] > 0
    metrics_text = scrapes[-1]["/metrics"][2]
    assert "repro_verdict_stage_bucket" in metrics_text
    assert "repro_telemetry_requests_total" in metrics_text


def test_drain_ends_the_watch_stream_early(loaded_bundle, bundle_path,
                                          stream_samples, stream_csv,
                                          tmp_path):
    """Watch inherits the daemon's POST routes: ``POST /drain`` stops the
    stream after the block in flight, exit 0, output a prefix of the
    full run's."""
    port_file = tmp_path / "port.txt"
    out = tmp_path / "drained.jsonl"
    outcome = {}

    def watch():
        outcome["status"] = serve_main([
            "watch", "--bundle", str(bundle_path),
            "--input", str(stream_csv), "--output", str(out),
            "--port-file", str(port_file),
            "--batch-size", "16", "--throttle", "0.05"])

    thread = threading.Thread(target=watch, daemon=True)
    thread.start()
    deadline = time.monotonic() + 30.0
    while not port_file.exists() and time.monotonic() < deadline:
        time.sleep(0.005)
    url = f"http://127.0.0.1:{int(port_file.read_text())}"
    status, _headers, body = _post(url + "/drain")
    assert (status, json.loads(body)) == (202, {"status": "draining"})
    thread.join(timeout=30)
    assert not thread.is_alive()

    assert outcome["status"] == 0
    _profiles, samples = stream_samples
    full = "".join(line + "\n"
                   for line in oracle_lines(loaded_bundle, samples))
    drained = out.read_text()
    assert len(drained) < len(full) and full.startswith(drained)


def test_flight_recorder_keeps_the_last_alerts(loaded_bundle,
                                               stream_samples):
    _profiles, samples = stream_samples
    recorder = FlightRecorder(capacity=32)
    with ServingDaemon(loaded_bundle, recorder=recorder) as daemon:
        for batch in _batches(samples):
            daemon.ingest_block(*batch)
        alerts = [e for e in recorder.tail() if e.kind == "alert"]
        assert alerts
        assert alerts[-1].context.keys() == {
            "serial", "hour", "level", "stage", "likely_type"}
        assert daemon.alerts_emitted >= len(alerts)
    kinds = [event.kind for event in recorder.tail()]
    assert kinds[-1] == "lifecycle"  # the stop event


def test_status_tail_is_bounded(loaded_bundle, stream_samples):
    _profiles, samples = stream_samples
    with ServingDaemon(loaded_bundle) as daemon:
        for batch in _batches(samples):
            daemon.ingest_block(*batch)
        payload = daemon.status_payload()
    recorder = payload["flight_recorder"]
    assert recorder["total_recorded"] > DEFAULT_STATUS_TAIL
    assert len(recorder["tail"]) == DEFAULT_STATUS_TAIL


def test_watch_cli_end_to_end(bundle_path, mid_fleet, loaded_bundle,
                              tmp_path, capsys):
    """The CLI wiring: watch a CSV stream, dump the recorder and a
    snapshot, and emit verdicts byte-identical to ``score``."""
    dataset = mid_fleet.dataset
    profiles = dataset.failed_profiles[:2] + dataset.good_profiles[:2]
    stream = tmp_path / "stream.csv"
    with open(stream, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["serial", "hour", *loaded_bundle.attributes])
        for profile in profiles:
            for hour, row in zip(profile.hours, profile.matrix):
                writer.writerow([profile.serial, int(hour),
                                 *(repr(float(v)) for v in row)])

    watch_out = tmp_path / "watch.jsonl"
    score_out = tmp_path / "score.jsonl"
    port_file = tmp_path / "port.txt"
    recorder_dump = tmp_path / "recorder.jsonl"
    snapshot = tmp_path / "snapshot.json"

    assert serve_main(["watch", "--bundle", str(bundle_path),
                       "--input", str(stream),
                       "--output", str(watch_out),
                       "--port-file", str(port_file),
                       "--recorder-dump", str(recorder_dump),
                       "--snapshot", str(snapshot),
                       "--snapshot-interval", "60",
                       "--batch-size", "64"]) == 0
    err = capsys.readouterr().err
    assert "telemetry listening on" in err
    assert int(port_file.read_text()) > 0

    assert serve_main(["score", "--bundle", str(bundle_path),
                       "--input", str(stream),
                       "--output", str(score_out)]) == 0
    assert watch_out.read_bytes() == score_out.read_bytes()

    events = [json.loads(line)
              for line in recorder_dump.read_text().splitlines()]
    assert any(event["kind"] == "alert" for event in events)
    assert any(event["kind"] == "lifecycle" for event in events)

    metrics = json.loads(snapshot.read_text())["metrics"]
    n_samples = sum(len(profile.hours) for profile in profiles)
    assert metrics["samples_scored"]["value"] == n_samples


def test_watch_cli_refuses_non_finite_values(bundle_path, loaded_bundle,
                                            tmp_path, capsys):
    """A NaN reading stops the stream with a typed refusal (exit 2)."""
    attributes = loaded_bundle.attributes
    bad = tmp_path / "non-finite.csv"
    bad.write_text(
        ",".join(["serial", "hour", *attributes]) + "\n"
        + "D1,0," + ",".join(["nan"] + ["0.5"] * (len(attributes) - 1))
        + "\n")
    out = tmp_path / "watch.jsonl"
    assert serve_main(["watch", "--bundle", str(bundle_path),
                       "--input", str(bad), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert (f"sample stream line 2: column {attributes[0]!r} is not "
            f"finite (nan)") in err
    assert out.read_text() == ""


@pytest.mark.parametrize("size", ["0", "-3"])
def test_watch_cli_refuses_a_batch_size_below_one(bundle_path, stream_csv,
                                                  size, tmp_path, capsys):
    """``--batch-size`` below 1 is a typed refusal, not a silent 1."""
    out = tmp_path / "watch.jsonl"
    assert serve_main(["watch", "--bundle", str(bundle_path),
                       "--input", str(stream_csv), "--output", str(out),
                       "--batch-size", size]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: --batch-size must be >= 1, got {size}"]
    assert not out.exists()
