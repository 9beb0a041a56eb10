"""Tests for the CLI's robustness flags (``--lenient``,
``--inject-faults``, ``--retries`` / ``--chunk-timeout``)."""

from __future__ import annotations

import json

from repro.cli import main
from repro.data.loader import save_csv

CHAOS = "drop=0.05,nan=0.02,outlier=0.01,duplicate=0.02,disorder=0.1,seed=9"


def test_resilience_flags_are_byte_identical_on_clean_data(tmp_path,
                                                           small_dataset,
                                                           capsys):
    """The acceptance scenario: quarantine enabled on clean data must
    not change one byte of the report, and must not emit a data_quality
    section."""
    csv_path = tmp_path / "fleet.csv"
    save_csv(small_dataset, csv_path)
    plain_json = tmp_path / "plain.json"
    guarded_json = tmp_path / "guarded.json"
    assert main(["--csv", str(csv_path), "--no-prediction", "--no-cache",
                 "--json", str(plain_json)]) == 0
    assert main(["--csv", str(csv_path), "--no-prediction", "--no-cache",
                 "--lenient", "--json", str(guarded_json)]) == 0
    assert plain_json.read_bytes() == guarded_json.read_bytes()
    assert "data_quality" not in json.loads(guarded_json.read_text())


def test_chaos_runs_are_deterministic(tmp_path, capsys):
    """Equal --inject-faults specs produce byte-identical reports."""
    first_json = tmp_path / "first.json"
    second_json = tmp_path / "second.json"
    args = ["--simulate", "1200", "--seed", "7", "--no-prediction",
            "--no-cache", "--inject-faults", CHAOS]
    assert main([*args, "--json", str(first_json)]) == 0
    first_out = capsys.readouterr().out
    assert main([*args, "--json", str(second_json)]) == 0
    assert first_json.read_bytes() == second_json.read_bytes()
    assert "data quality:" in first_out

    payload = json.loads(first_json.read_text())
    quality = payload["data_quality"]
    injection = quality["fault_injection"]
    assert injection["seed"] == 9
    assert injection["total_faults"] > 0
    assert set(injection["counts"]) == {"drop", "nan", "outlier",
                                        "duplicate", "disorder"}
    # The corruption was actually repaired/quarantined, not analyzed.
    assert quality["n_input_drives"] == 1200
    assert quality["samples_quarantined"]


def test_chaos_without_json_still_prints_quality_line(capsys):
    assert main(["--simulate", "1200", "--seed", "7", "--no-prediction",
                 "--no-cache", "--inject-faults", "drop=0.05,seed=3"]) == 0
    assert "data quality:" in capsys.readouterr().out


def test_bad_chaos_spec_exits_2(capsys):
    assert main(["--simulate", "1200", "--no-cache",
                 "--inject-faults", "gremlins=1"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "unknown fault class" in err


def test_lenient_csv_quarantines_and_reports(tmp_path, small_dataset,
                                             capsys):
    csv_path = tmp_path / "dirty.csv"
    save_csv(small_dataset, csv_path)
    with csv_path.open("a") as handle:
        handle.write("mangled,row,without,enough,fields\n")
    json_path = tmp_path / "report.json"
    assert main(["--csv", str(csv_path), "--no-prediction", "--no-cache",
                 "--lenient", "--json", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "data quality:" in out
    quality = json.loads(json_path.read_text())["data_quality"]
    assert quality["samples_quarantined"] == {"MALFORMED_ROW": 1}


def test_strict_csv_still_fails_fast(tmp_path, small_dataset, capsys):
    """Without --lenient the historical contract holds: corruption is
    an error, not a repair."""
    csv_path = tmp_path / "dirty.csv"
    save_csv(small_dataset, csv_path)
    with csv_path.open("a") as handle:
        handle.write("mangled,row,without,enough,fields\n")
    assert main(["--csv", str(csv_path), "--no-cache"]) == 2
    assert "error:" in capsys.readouterr().err
