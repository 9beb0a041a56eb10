"""Tests for the repro-serve CLI (and the --export-model training flow)."""

import csv
import json

import pytest

from repro.cli import main as characterize_main
from repro.serve.bundle import build_bundle, load_bundle, save_bundle
from repro.serve.cli import main as serve_main
from repro.serve.scorer import StreamScorer
from repro.sim.config import FleetConfig
from repro.sim.fleet import simulate_fleet
from tests.oracle import oracle_lines


@pytest.fixture(scope="module")
def bundle_path(mid_report, tmp_path_factory):
    bundle = build_bundle(mid_report, seed=7)
    path = tmp_path_factory.mktemp("serve-cli") / "fleet.bundle.json"
    save_bundle(bundle, path)
    return path


@pytest.fixture(scope="module")
def stream_csv(mid_fleet, bundle_path, tmp_path_factory):
    """A raw sample stream covering two failed and two good drives."""
    bundle = load_bundle(bundle_path)
    dataset = mid_fleet.dataset
    profiles = dataset.failed_profiles[:2] + dataset.good_profiles[:2]
    path = tmp_path_factory.mktemp("stream") / "stream.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["serial", "hour", *bundle.attributes])
        for profile in profiles:
            for hour, row in zip(profile.hours, profile.matrix):
                writer.writerow([profile.serial, int(hour),
                                 *(repr(float(v)) for v in row)])
    return path, profiles


def _library_verdicts(bundle_path, profiles):
    """``profiles`` scored through the library, one block per profile."""
    scorer = StreamScorer(load_bundle(bundle_path))
    return [verdict for profile in profiles
            for verdict in scorer.score_block(
                [profile.serial] * len(profile), profile.hours,
                profile.matrix).verdicts()]


def test_export_model_flow(tmp_path, capsys):
    out = tmp_path / "exported.bundle.json"
    assert characterize_main(["--simulate", "1200", "--seed", "7",
                              "--export-model", str(out)]) == 0
    assert "model bundle written" in capsys.readouterr().out
    bundle = load_bundle(out)
    assert bundle.trained_on["n_drives"] == 1200


def test_export_model_requires_prediction(tmp_path, capsys):
    out = tmp_path / "exported.bundle.json"
    assert characterize_main(["--simulate", "1200", "--seed", "7",
                              "--no-prediction",
                              "--export-model", str(out)]) == 2
    assert "--no-prediction" in capsys.readouterr().err
    assert not out.exists()


def test_score_stream_to_jsonl(bundle_path, stream_csv, tmp_path, capsys):
    path, profiles = stream_csv
    out = tmp_path / "verdicts.jsonl"
    assert serve_main(["score", "--bundle", str(bundle_path),
                       "--input", str(path), "--output", str(out)]) == 0
    err = capsys.readouterr().err
    n_samples = sum(len(profile.hours) for profile in profiles)
    assert f"scored {n_samples} samples" in err
    lines = out.read_text().splitlines()
    assert len(lines) == n_samples

    # byte-identical to scoring the same stream through the library
    expected = [verdict.to_json_line()
                for verdict in _library_verdicts(bundle_path, profiles)]
    assert lines == expected
    first = json.loads(lines[0])
    assert {"serial", "hour", "level", "stage", "likely_type",
            "stages"} <= set(first)


def test_score_alerts_only_filters(bundle_path, stream_csv, tmp_path):
    path, profiles = stream_csv
    out = tmp_path / "alerts.jsonl"
    assert serve_main(["score", "--bundle", str(bundle_path),
                       "--input", str(path), "--output", str(out),
                       "--alerts-only"]) == 0
    lines = out.read_text().splitlines()
    assert lines   # the stream includes failed drives
    assert all(json.loads(line)["level"] != "HEALTHY" for line in lines)
    # the library's alerting lines, in stream order
    assert lines == [verdict.to_json_line()
                     for verdict in _library_verdicts(bundle_path, profiles)
                     if verdict.alerting]


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_score_refuses_non_finite_values(bundle_path, value, tmp_path,
                                         capsys):
    bundle = load_bundle(bundle_path)
    width = len(bundle.attributes)
    bad = tmp_path / "non-finite.csv"
    bad.write_text(
        ",".join(["serial", "hour", *bundle.attributes]) + "\n"
        + "D1,0," + ",".join(["0.5"] * width) + "\n"
        + "D1,1," + ",".join(["0.5"] * (width - 1) + [value]) + "\n")
    out = tmp_path / "verdicts.jsonl"
    assert serve_main(["score", "--bundle", str(bundle_path),
                       "--input", str(bad), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err
    assert f"column {bundle.attributes[-1]!r} is not finite" in err
    assert out.read_text() == ""


def test_score_refuses_an_hour_outside_int64(bundle_path, tmp_path, capsys):
    """An hour no ``int64`` column holds exits 2 naming its line, not
    with an ``OverflowError`` traceback."""
    bundle = load_bundle(bundle_path)
    row = ",".join(["0.5"] * len(bundle.attributes))
    bad = tmp_path / "huge-hour.csv"
    bad.write_text(",".join(["serial", "hour", *bundle.attributes]) + "\n"
                   + f"D1,0,{row}\nD1,99999999999999999999,{row}\n")
    out = tmp_path / "verdicts.jsonl"
    assert serve_main(["score", "--bundle", str(bundle_path),
                       "--input", str(bad), "--output", str(out)]) == 2
    assert ("error: sample stream line 3: hour 99999999999999999999 is "
            "outside the int64 range") in capsys.readouterr().err
    assert out.read_text() == ""


def test_score_rejects_foreign_header(bundle_path, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("serial,hour,wrong_column\nD1,0,1.0\n")
    assert serve_main(["score", "--bundle", str(bundle_path),
                       "--input", str(bad)]) == 2
    assert "does not match" in capsys.readouterr().err


def test_score_missing_bundle_exits_2(tmp_path, capsys):
    assert serve_main(["score", "--bundle", str(tmp_path / "nope.json"),
                       "--input", str(tmp_path / "nope.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_replay_writes_verdicts(bundle_path, tmp_path, capsys):
    """``replay`` writes the oracle's lines, profile after profile, and
    counts every sample and alert in its telemetry."""
    out = tmp_path / "replay.jsonl"
    metrics = tmp_path / "metrics.json"
    assert serve_main(["replay", "--bundle", str(bundle_path),
                       "--simulate", "80", "--seed", "7",
                       "--output", str(out), "--metrics", str(metrics)]) == 0
    console = capsys.readouterr().out
    assert "replayed" in console and "samples/s" in console
    profiles = simulate_fleet(
        FleetConfig(n_drives=80, seed=7)).dataset.profiles
    lines = out.read_text().splitlines()
    assert lines == oracle_lines(load_bundle(bundle_path), [
        (profile.serial, hour, record) for profile in profiles
        for hour, record in zip(profile.hours, profile.matrix)])
    snapshot = json.loads(metrics.read_text())
    assert snapshot["samples_scored"]["value"] == len(lines)
    assert snapshot["alerts_emitted"]["value"] == sum(
        json.loads(line)["level"] != "HEALTHY" for line in lines) > 0
    assert snapshot["drives_tracked"]["value"] == 80
    with pytest.raises(SystemExit) as refused:  # the fan-out is gone
        serve_main(["replay", "--bundle", str(bundle_path),
                    "--simulate", "80", "--jobs", "2"])
    assert refused.value.code == 2


def test_serve_telemetry_artifacts(bundle_path, stream_csv, tmp_path):
    path, _ = stream_csv
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.json"
    assert serve_main(["score", "--bundle", str(bundle_path),
                       "--input", str(path),
                       "--output", str(tmp_path / "v.jsonl"),
                       "--trace", str(trace),
                       "--metrics", str(metrics)]) == 0
    spans = json.loads(trace.read_text())
    names = json.dumps(spans)
    assert "bundle-load" in names and "score-stream" in names
    snapshot = json.loads(metrics.read_text())
    assert snapshot["samples_scored"]["value"] > 0
