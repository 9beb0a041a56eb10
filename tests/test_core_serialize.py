"""Tests for report JSON serialization."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.serialize import (
    SCHEMA_VERSION,
    canonical_json_dumps,
    report_to_dict,
    save_report_json,
)
from repro.errors import ReproError

GOLDEN_DIR = Path(__file__).parent / "data"


def test_round_trip(tmp_path, mid_report):
    path = tmp_path / "report.json"
    save_report_json(mid_report, path)
    summary = json.loads(path.read_text())
    assert summary["schema_version"] == SCHEMA_VERSION
    assert summary["n_failed_drives"] == mid_report.records.n_records
    assert len(summary["drive_types"]) == mid_report.records.n_records


def test_dict_contains_all_sections(mid_report):
    payload = report_to_dict(mid_report)
    assert set(payload["groups"]) == {"0", "1", "2"}
    assert set(payload["group_summaries"]) == {
        "LOGICAL", "BAD_SECTOR", "HEAD"
    }
    assert set(payload["predictions"]) == {"LOGICAL", "BAD_SECTOR", "HEAD"}
    # Signature entries are keyed by serial and carry the window/order.
    serial, signature = next(iter(payload["signatures"].items()))
    assert signature["window_hours"] >= 1
    assert signature["best_canonical_order"] in (1, 2, 3)
    assert serial in payload["drive_types"]


def test_payload_is_json_serializable(mid_report):
    text = json.dumps(report_to_dict(mid_report))
    assert "LOGICAL" in text


def test_group_fractions_sum_to_one(mid_report):
    payload = report_to_dict(mid_report)
    total = sum(group["population_fraction"]
                for group in payload["groups"].values())
    assert total == pytest.approx(1.0)


def test_save_is_deterministic(tmp_path, mid_report):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_report_json(mid_report, first)
    save_report_json(mid_report, second)
    assert first.read_bytes() == second.read_bytes()


def test_telemetry_section_embedded_and_optional(tmp_path, mid_report):
    path = tmp_path / "report.json"
    telemetry = {"stage_timings": {"cluster": 0.25},
                 "metrics": {"drives_processed":
                             {"kind": "counter", "value": 40.0}}}
    save_report_json(mid_report, path, telemetry=telemetry)
    payload = json.loads(path.read_text())
    assert payload["telemetry"] == telemetry
    save_report_json(mid_report, path)
    assert "telemetry" not in json.loads(path.read_text())


def test_canonical_dumps_matches_golden_file():
    """Pin the canonical rendering so formatting drift is an explicit diff."""
    payload = {
        "zulu": np.float64(0.1) + np.float64(0.2),  # 0.30000000000000004
        "alpha": {"nested": [1, 2.5, np.int64(3)]},
        "flags": [True, False, None],
        "count": np.int32(433),
        "tuple_becomes_list": (1.0, 2.0),
        "array": np.array([0.5, 1.5]),
        "non_finite": [float("nan"), float("inf")],
        "text": "ST4000DM000",
    }
    golden = (GOLDEN_DIR / "golden_canonical.json").read_text()
    assert canonical_json_dumps(payload) == golden


def test_canonical_rendering_is_pinned_by_golden_file():
    """Byte-identity is only meaningful while the canonical format is
    stable; re-canonicalizing the golden file must be a fixed point."""
    golden = (GOLDEN_DIR / "golden_canonical.json").read_text()
    assert canonical_json_dumps(json.loads(golden)) == golden


def test_canonical_dumps_normalizes_float_noise():
    text = canonical_json_dumps({"x": 0.1 + 0.2})
    assert json.loads(text)["x"] == 0.3


def test_canonical_dumps_rejects_unserializable_values():
    with pytest.raises(ReproError, match="cannot serialize"):
        canonical_json_dumps({"bad": object()})
