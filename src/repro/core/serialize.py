"""JSON serialization of characterization results.

Operators want the pipeline's verdicts — the taxonomy, per-drive
signatures and prediction quality — in a machine-readable artifact that
outlives the Python session.  :func:`report_to_dict` flattens a
:class:`CharacterizationReport` into plain JSON types;
:func:`save_report_json` writes it to disk.  The raw dataset is not
embedded (use :func:`repro.data.save_csv` for that); the summary
references drives by serial.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - offline layer, types only
    from repro.core.pipeline import CharacterizationReport

#: Schema version written into every artifact; bump on breaking changes.
SCHEMA_VERSION = 1

#: Significant digits kept for floats in canonical JSON.  12 digits is
#: far beyond the reproduction's numeric fidelity but short of the
#: platform-noise tail of a float64 repr, so artifacts diff cleanly.
_FLOAT_DIGITS = 12


def _jsonify(value: Any) -> Any:
    """Coerce a payload into deterministic, JSON-clean plain types.

    NumPy scalars become Python numbers, tuples become lists, floats are
    rounded to :data:`_FLOAT_DIGITS` significant digits and non-finite
    floats become ``None`` — JSON has no NaN/Infinity.
    """
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        return float(f"{value:.{_FLOAT_DIGITS}g}")
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, np.ndarray):
        return [_jsonify(item) for item in value.tolist()]
    raise ReproError(
        f"cannot serialize {type(value).__name__!r} value {value!r}"
    )


def canonical_json_dumps(payload: Any) -> str:
    """Render ``payload`` as byte-stable JSON: sorted keys, indented,
    floats normalized — two runs producing equal payloads produce equal
    bytes, so report/trace diffs are reviewable."""
    return json.dumps(_jsonify(payload), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def canonical_json_line(payload: Any) -> str:
    """Render ``payload`` as one byte-stable JSON line (no newline).

    The JSONL sibling of :func:`canonical_json_dumps`: same key sorting
    and float normalization, but compact separators and no trailing
    newline, so streaming emitters (the serving layer's verdict stream)
    can write one canonical record per line.
    """
    return json.dumps(_jsonify(payload), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def report_to_dict(report: CharacterizationReport, *,
                   telemetry: dict[str, Any] | None = None,
                   data_quality: dict[str, Any] | None = None,
                   ) -> dict[str, Any]:
    """Flatten a report into JSON-serializable types.

    ``telemetry`` (optional) is embedded verbatim under a ``"telemetry"``
    key — the CLI passes stage timings and the metric snapshot of the
    run that produced the report.  ``data_quality`` (optional) is
    embedded under a ``"data_quality"`` key — quarantine counts, repair
    counts and the fault-injection log of the ingest that produced the
    dataset.  Both keys are omitted entirely when ``None``, so reports
    from clean, uninstrumented runs are byte-identical to before these
    sections existed.
    """
    groups = {}
    for cluster_id, group in report.categorization.groups.items():
        groups[str(cluster_id)] = {
            "failure_type": group.failure_type.name,
            "paper_group_number": group.paper_group_number,
            "n_records": group.n_records,
            "population_fraction": group.population_fraction,
            "properties": group.properties,
        }

    signatures = {}
    for serial, signature in report.signatures.items():
        signatures[serial] = {
            "window_hours": signature.window_size,
            "best_canonical_order": signature.best_canonical_order,
            "canonical_rmse": {
                str(order): value
                for order, value in signature.canonical_rmse.items()
            },
            "best_free_fit": {
                "order": signature.best_fit.order,
                "r_squared": signature.best_fit.r_squared,
                "rmse": signature.best_fit.rmse,
            },
        }

    summaries = {}
    for failure_type, summary in report.group_summaries.items():
        summaries[failure_type.name] = {
            "n_drives": summary.n_drives,
            "median_window_hours": summary.median_window,
            "window_range": list(summary.window_range),
            "consensus_order": summary.consensus_order,
            "centroid_serial": summary.centroid_serial,
            "top_correlated": list(summary.top_correlated),
        }

    predictions = {}
    for failure_type, prediction in report.predictions.items():
        predictions[failure_type.name] = {
            "window_hours": prediction.window,
            "rmse": prediction.rmse,
            "error_rate": prediction.error_rate,
            "n_train": prediction.n_train,
            "n_test": prediction.n_test,
            "tree_depth": prediction.tree_depth,
            "tree_leaves": prediction.tree_leaves,
        }

    drive_types = {
        serial: report.categorization.type_of_serial(serial).name
        for serial in report.records.serials
    }
    payload: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "n_failed_drives": report.records.n_records,
        "groups": groups,
        "drive_types": drive_types,
        "signatures": signatures,
        "group_summaries": summaries,
        "predictions": predictions,
    }
    if telemetry is not None:
        payload["telemetry"] = telemetry
    if data_quality is not None:
        payload["data_quality"] = data_quality
    return payload


def save_report_json(report: CharacterizationReport, path: str | Path, *,
                     telemetry: dict[str, Any] | None = None,
                     data_quality: dict[str, Any] | None = None) -> None:
    """Write the report summary to ``path`` as canonical JSON.

    Output is deterministic for equal reports — keys sorted, floats
    normalized — so artifacts from repeated runs diff cleanly.
    """
    path = Path(path)
    path.write_text(
        canonical_json_dumps(report_to_dict(report, telemetry=telemetry,
                                            data_quality=data_quality))
    )
