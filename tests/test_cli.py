"""Tests for the repro-characterize CLI."""

import json

import pytest

from repro.cli import main
from repro.data.loader import save_csv


def test_simulate_path(capsys):
    assert main(["--simulate", "1200", "--seed", "7",
                 "--no-prediction"]) == 0
    out = capsys.readouterr().out
    assert "loaded 1200 drives" in out
    assert "Failure taxonomy" in out
    assert "logical failures" in out


def test_csv_path_with_json_output(tmp_path, small_dataset, capsys):
    csv_path = tmp_path / "fleet.csv"
    save_csv(small_dataset, csv_path)
    json_path = tmp_path / "report.json"
    assert main(["--csv", str(csv_path), "--no-prediction",
                 "--json", str(json_path)]) == 0
    payload = json.loads(json_path.read_text())
    assert payload["n_failed_drives"] == len(small_dataset.failed_profiles)
    out = capsys.readouterr().out
    assert "report written" in out


def test_prediction_table_included(capsys):
    assert main(["--simulate", "1200", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "Degradation prediction quality" in out
    assert "error rate" in out


def test_missing_csv_errors(tmp_path, capsys):
    assert main(["--csv", str(tmp_path / "nope.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_backblaze_glob_without_matches_errors(tmp_path, capsys):
    assert main(["--backblaze", str(tmp_path / "*.csv")]) == 2
    assert "no files match" in capsys.readouterr().err


def test_repro_error_exits_2_without_traceback(tmp_path, capsys, monkeypatch):
    """Any ReproError from the pipeline surfaces as a clean one-liner."""
    from repro.errors import ReproError

    def exploding_run(self, dataset):
        raise ReproError("synthetic pipeline failure")

    monkeypatch.setattr(
        "repro.core.pipeline.CharacterizationPipeline.run", exploding_run
    )
    assert main(["--simulate", "1200", "--seed", "7"]) == 2
    err = capsys.readouterr().err
    assert "error: synthetic pipeline failure" in err
    assert "Traceback" not in err


def test_backblaze_path(tmp_path, small_dataset, capsys):
    from repro.data.backblaze import save_backblaze_csv
    save_backblaze_csv(small_dataset, tmp_path, model="M1")
    assert main(["--backblaze", str(tmp_path / "*.csv"),
                 "--model", "M1", "--no-prediction"]) == 0
    assert "Failure taxonomy" in capsys.readouterr().out


def test_too_few_failures_rejected(tmp_path, capsys):
    import numpy as np
    from repro.data.dataset import DiskDataset
    from repro.smart.profile import HealthProfile
    rng = np.random.default_rng(0)
    profiles = [
        HealthProfile(f"g{i}", np.arange(30),
                      rng.uniform(size=(30, 12)), failed=(i == 0))
        for i in range(10)
    ]
    path = tmp_path / "tiny.csv"
    save_csv(DiskDataset(profiles), path)
    assert main(["--csv", str(path)]) == 2
    assert "at least 3 failed drives" in capsys.readouterr().err


def test_requires_a_source():
    with pytest.raises(SystemExit):
        main([])


def test_trace_and_metrics_flags_write_telemetry(tmp_path, capsys):
    """The acceptance scenario: ≥6 named stages, ≥8 distinct metrics."""
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    assert main(["--simulate", "500", "--trace", str(trace_path),
                 "--metrics", str(metrics_path), "-v"]) == 0

    trace = json.loads(trace_path.read_text())
    names: set[str] = set()

    def collect(spans):
        for span in spans:
            names.add(span["name"])
            assert span["wall_s"] > 0
            collect(span.get("children", []))

    collect(trace["spans"])
    assert {"normalize", "failure-records", "cluster", "signatures",
            "influence", "predict"} <= names

    metrics = json.loads(metrics_path.read_text())
    assert len(metrics) >= 8


def test_obs_flags_do_not_change_the_report(tmp_path, capsys):
    """Same seed with and without telemetry: identical analytic output."""
    plain_json = tmp_path / "plain.json"
    traced_json = tmp_path / "traced.json"
    assert main(["--simulate", "500", "--no-prediction",
                 "--json", str(plain_json)]) == 0
    plain_out = capsys.readouterr().out
    assert main(["--simulate", "500", "--no-prediction",
                 "--json", str(traced_json),
                 "--trace", str(tmp_path / "t.json"),
                 "--metrics", str(tmp_path / "m.json"), "-v"]) == 0
    traced_out = capsys.readouterr().out

    def report_table(text):
        return text[text.index("Failure taxonomy"):text.index("report written")]

    assert report_table(plain_out) == report_table(traced_out)
    plain = json.loads(plain_json.read_text())
    traced = json.loads(traced_json.read_text())
    telemetry = traced.pop("telemetry")
    assert plain == traced  # telemetry section is purely additive
    assert telemetry["stage_timings"]["cluster"] > 0


def test_default_run_embeds_no_telemetry(tmp_path, capsys):
    json_path = tmp_path / "report.json"
    assert main(["--simulate", "500", "--no-prediction",
                 "--json", str(json_path)]) == 0
    assert "telemetry" not in json.loads(json_path.read_text())


def test_cache_dir_flag_populates_and_reuses_cache(tmp_path, small_dataset,
                                                   capsys):
    csv_path = tmp_path / "fleet.csv"
    save_csv(small_dataset, csv_path)
    cache_dir = tmp_path / "cache"
    cold_json = tmp_path / "cold.json"
    warm_json = tmp_path / "warm.json"
    args = ["--csv", str(csv_path), "--no-prediction",
            "--cache-dir", str(cache_dir)]
    assert main([*args, "--json", str(cold_json)]) == 0
    entries = list(cache_dir.glob("*.npz"))
    assert len(entries) == 1
    mtime = entries[0].stat().st_mtime_ns
    assert main([*args, "--json", str(warm_json)]) == 0
    assert cold_json.read_bytes() == warm_json.read_bytes()
    # The warm run reused the entry instead of rewriting it.
    assert entries[0].stat().st_mtime_ns == mtime


def test_no_cache_flag_leaves_no_entries(tmp_path, small_dataset, capsys,
                                         monkeypatch):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    csv_path = tmp_path / "fleet.csv"
    save_csv(small_dataset, csv_path)
    assert main(["--csv", str(csv_path), "--no-prediction",
                 "--no-cache"]) == 0
    assert not cache_dir.exists() or not list(cache_dir.glob("*.npz"))


def test_degenerate_telemetry_exits_2_with_clear_message(tmp_path, capsys):
    """Flat-lined failed drives have no degradation window; the CLI must
    fail with exit code 2 and a one-line explanation, not a traceback."""
    import numpy as np
    from repro.data.dataset import DiskDataset
    from repro.smart.profile import HealthProfile
    rng = np.random.default_rng(5)
    profiles = [
        HealthProfile(f"dead-{i}", np.arange(30),
                      np.tile(np.full(12, 0.2 + 0.1 * i), (30, 1)),
                      failed=True)
        for i in range(5)
    ]
    profiles += [
        HealthProfile(f"good-{i}", np.arange(30),
                      rng.uniform(size=(30, 12)), failed=False)
        for i in range(12)
    ]
    path = tmp_path / "flat.csv"
    save_csv(DiskDataset(profiles), path)
    assert main(["--csv", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "degradation window" in err
    assert "Traceback" not in err
