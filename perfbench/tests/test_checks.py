"""Reference checks reject corrupted outputs, and failures are counted."""

import hashlib
import json
from pathlib import Path

from launch import digest_file
from layers import PER_LAYER, TARGETS
from workloads import (END_TO_END, WORKLOADS, Job, Jobs, Load, Outcome,
                       bundle_error, check_load, sink_error, verdicts_error)

ROOT = Path(__file__).resolve().parent.parent.parent


def test_verdict_digest_rejects_a_corrupted_output(tmp_path):
    output = b'{"serial": "a", "stage": 0.5}\n{"serial": "b", "stage": 1}\n'
    reference = hashlib.sha256(output).hexdigest()
    path = tmp_path / "verdicts.jsonl"
    path.write_bytes(output)
    assert digest_file(path) == (reference, 2)
    assert verdicts_error(digest_file(path)[0], reference) is None
    for corrupted in (output.replace(b"0.5", b"0.6"), output[:-1]):
        path.write_bytes(corrupted)
        assert verdicts_error(digest_file(path)[0], reference) is not None


def test_bundle_check_rejects_a_corrupted_bundle_or_report():
    from repro.serve.bundle import content_hash
    payload = {"schema_version": 1, "minima": [0.0, 1.0]}
    digest = content_hash(payload)
    bundle = dict(payload, content_sha256=digest)
    report = ("| Group 1 | logical |\n| Group 2 | bad sector |\n"
              "| Group 3 | head |\n| Group 1 | 3 | 0.081 |\n")
    assert bundle_error(bundle, report, digest) is None
    assert bundle_error(dict(bundle, minima=[0.0, 2.0]), report,
                        digest) is not None
    assert bundle_error(dict(bundle, content_sha256="0" * 64), report,
                        digest) is not None
    assert bundle_error(bundle, report.replace("Group 3", "Group 2"),
                        digest) is not None


def test_a_corrupted_alert_sink_counts_as_a_failed_operation(tmp_path):
    reference = {"rows": [256, 256], "alerts": [1, 0],
                 "alert_lines": [['{"serial": "a"}'], []]}
    load = Load(latencies_ns=[5, 6], accepted=512, accepted_batches=[0, 1])
    sink = tmp_path / "alerts.jsonl"
    sink.write_text('{"serial": "a"}\n')
    good = Outcome()
    check_load(good, load, sink, reference)
    assert (good.attempted, good.failed, good.checks) == (3, 0, [])

    sink.write_text('{"serial": "A"}\n')
    bad = Outcome()
    check_load(bad, load, sink, reference)
    assert (bad.attempted, bad.failed) == (3, 1)
    assert sink_error([], ['{"serial": "a"}']) is not None


def test_job_rate_is_all_samples_over_all_work_time():
    jobs = Jobs(jobs=[Job(main_s=1.0, setup_s=0.2, work_s=0.5, units=100),
                      Job(main_s=2.0, setup_s=0.2, work_s=1.5, units=100)])
    assert jobs.rate() == 200 / 2.0
    assert Jobs().rate() == 0.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _spans in PER_LAYER]


def test_every_layer_metric_names_recorded_spans():
    recorded = {target.span for target in TARGETS} | {"obs.http.round_trip"}
    for _name, _unit, spans in PER_LAYER:
        assert set(spans) <= recorded
