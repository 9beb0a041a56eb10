"""Tests for watch mode: the live telemetry plane around the scorer.

The acceptance criteria of the telemetry plane live here: a concurrent
HTTP client scrapes ``/metrics``, ``/health`` and ``/status`` *while*
the service scores; the flight recorder retains the last alerts; and
watched verdicts stay byte-identical to an offline replay of the same
samples — telemetry observes scoring, it never participates.
"""

import csv
import json
import threading

import numpy as np
import pytest

from repro.errors import ServeError
from repro.obs.observer import NULL_OBSERVER, TelemetryObserver
from repro.obs.recorder import FlightRecorder
from repro.serve.bundle import (
    BUNDLE_SCHEMA_VERSION,
    build_bundle,
    content_hash,
    load_bundle,
    save_bundle,
)
from repro.serve.cli import main as serve_main
from repro.serve.scorer import StreamScorer
from repro.serve.watch import WatchService

from tests.test_obs_http import _get


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


def _batches(samples, size=64):
    """Column blocks ``(serials, hours, matrix)`` for ``score_batch``."""
    return [([serial for serial, _, _ in batch],
             [hour for _, hour, _ in batch],
             np.vstack([row for _, _, row in batch]))
            for batch in (samples[i:i + size]
                          for i in range(0, len(samples), size))]


def test_watch_verdicts_byte_identical_to_offline_replay(
        loaded_bundle, stream_samples):
    profiles, samples = stream_samples
    offline = StreamScorer(loaded_bundle)
    expected = [verdict.to_json_line()
                for profile in profiles
                for verdict in offline.replay_profile(profile)]
    with WatchService(loaded_bundle) as service:
        watched = [line
                   for batch in _batches(samples)
                   for line in service.score_batch(*batch).to_json_lines()]
    assert watched == expected


def test_concurrent_scrapes_while_scoring(loaded_bundle, stream_samples):
    """The acceptance scenario: scrape all three endpoints from another
    thread while batches stream through the scorer."""
    _profiles, samples = stream_samples
    scrapes = []
    stop = threading.Event()

    with WatchService(loaded_bundle) as service:
        def scraper():
            while not stop.is_set():
                for endpoint in ("/metrics", "/health", "/status"):
                    scrapes.append((endpoint, _get(service.url + endpoint)))

        thread = threading.Thread(target=scraper, daemon=True)
        thread.start()
        for batch in _batches(samples):
            service.score_batch(*batch)
        stop.set()
        thread.join(timeout=10)

        assert len(scrapes) >= 3
        assert all(status == 200 for _e, (status, _c, _b) in scrapes)
        health = json.loads(
            _get(service.url + "/health")[2])
        assert health == {
            "status": "ok",
            "bundle_sha256": content_hash(loaded_bundle.to_payload()),
            "schema_version": BUNDLE_SCHEMA_VERSION,
        }
        final_status = json.loads(_get(service.url + "/status")[2])
        assert final_status["samples_scored"] == len(samples)
        assert final_status["alerts_emitted"] > 0
        assert final_status["flight_recorder"]["total_recorded"] > 0
        metrics_text = _get(service.url + "/metrics")[2]
        assert f"repro_samples_scored_total {len(samples)}" in metrics_text
        assert "repro_verdict_stage_bucket" in metrics_text
        assert "repro_telemetry_requests_total" in metrics_text


def test_flight_recorder_keeps_the_last_alerts(loaded_bundle,
                                               stream_samples):
    _profiles, samples = stream_samples
    recorder = FlightRecorder(capacity=32)
    with WatchService(loaded_bundle, recorder=recorder) as service:
        for batch in _batches(samples):
            service.score_batch(*batch)
        alerts = recorder.events_of("alert")
        assert alerts
        assert alerts[-1].context.keys() == {
            "serial", "hour", "level", "stage", "likely_type"}
        assert service.scorer.alerts_emitted >= len(alerts)
    kinds = [event.kind for event in recorder.tail()]
    assert kinds[-1] == "lifecycle"  # the stop event


def test_status_tail_is_bounded(loaded_bundle, stream_samples):
    _profiles, samples = stream_samples
    with WatchService(loaded_bundle, status_tail=3) as service:
        for batch in _batches(samples):
            service.score_batch(*batch)
        payload = service.status_payload()
    assert len(payload["flight_recorder"]["tail"]) <= 3


def test_watch_service_requires_metrics_observer(loaded_bundle):
    with pytest.raises(ServeError, match="metrics registry"):
        WatchService(loaded_bundle, observer=NULL_OBSERVER)
    with pytest.raises(ServeError, match="status_tail"):
        WatchService(loaded_bundle, status_tail=-1)


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


def test_replay_fleet_telemetry_matches_serial(loaded_bundle, mid_fleet):
    """`--jobs` stays a pure performance knob for serving telemetry."""
    from repro.serve.scorer import replay_fleet

    dataset = mid_fleet.dataset
    profiles = dataset.failed_profiles[:4] + dataset.good_profiles[:4]
    serial, parallel = TelemetryObserver(), TelemetryObserver()
    a = replay_fleet(loaded_bundle, profiles, n_jobs=1, observer=serial)
    b = replay_fleet(loaded_bundle, profiles, n_jobs=2, backend="thread",
                     observer=parallel)
    assert [[v.to_json_line() for v in vs] for vs in a] \
        == [[v.to_json_line() for v in vs] for vs in b]
    for name in ("samples_scored", "alerts_emitted"):
        assert (serial.metrics.counter(name).value
                == parallel.metrics.counter(name).value > 0)
    assert (serial.metrics.histogram("verdict_stage").bucket_counts()
            == parallel.metrics.histogram("verdict_stage").bucket_counts())
    assert (serial.metrics.gauge("drives_tracked").value
            == parallel.metrics.gauge("drives_tracked").value == 8.0)
