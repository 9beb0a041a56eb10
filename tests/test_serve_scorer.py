"""Tests for the streaming scorer — the byte-identity golden contract."""

import numpy as np
import pytest

from repro.core.columnar import AlertBlock
from repro.core.monitor import AlertLevel, DegradationMonitor
from repro.core.prediction import DegradationPredictor
from repro.core.taxonomy import FailureType
from repro.errors import ServeError
from repro.obs.observer import TelemetryObserver
from repro.serve.bundle import build_bundle, load_bundle, save_bundle
from repro.serve.scorer import MonitorVerdict, StreamScorer, VerdictBlock
from tests.oracle import oracle_monitor, oracle_verdicts


@pytest.fixture(scope="module")
def loaded_bundle(mid_report, tmp_path_factory):
    """A bundle that went through a full disk round trip."""
    bundle = build_bundle(mid_report, seed=7)
    path = tmp_path_factory.mktemp("scorer") / "fleet.bundle.json"
    save_bundle(bundle, path)
    return load_bundle(path)


@pytest.fixture(scope="module")
def reference_monitor(mid_report):
    """The offline monitor built from never-serialized in-memory models."""
    predictor = DegradationPredictor(seed=7)
    predictor.evaluate_all(mid_report.dataset, mid_report.categorization)
    return DegradationMonitor(predictor, mid_report.dataset.normalizer)


@pytest.fixture(scope="module")
def stream_profiles(mid_fleet):
    """A mixed failed/good slice of the fleet, raw records."""
    dataset = mid_fleet.dataset
    return dataset.failed_profiles[:6] + dataset.good_profiles[:6]


def _lines(verdicts):
    return [v.to_json_line() for v in verdicts]


def _score_profile(scorer, profile):
    """Every verdict of one profile scored as one block."""
    return scorer.score_block([profile.serial] * len(profile),
                              profile.hours, profile.matrix).verdicts()


def test_scorer_matches_offline_replay_byte_for_byte(
        loaded_bundle, reference_monitor, stream_profiles):
    """The golden contract: saved->loaded->streamed == offline replay."""
    scorer = StreamScorer(loaded_bundle)
    for profile in stream_profiles:
        offline = [MonitorVerdict.from_alert(alert).to_json_line()
                   for alert in reference_monitor.replay(profile)]
        streamed = _lines(_score_profile(scorer, profile))
        assert streamed == offline


def _samples(profiles):
    return [
        (profile.serial, int(hour), row)
        for profile in profiles
        for hour, row in zip(profile.hours, profile.matrix)
    ]


def test_push_many_equals_push(loaded_bundle, stream_profiles):
    """``push_many`` == the per-sample ``observe`` oracle, in order."""
    samples = _samples(stream_profiles)
    sequential = oracle_verdicts(oracle_monitor(loaded_bundle), samples)
    batched = StreamScorer(loaded_bundle)
    batch = batched.push_many(samples)
    assert _lines(batch) == _lines(sequential)
    assert batched.samples_scored == len(samples)
    assert batched.alerts_emitted == sum(v.alerting for v in sequential)


def test_push_many_empty_is_noop(loaded_bundle):
    scorer = StreamScorer(loaded_bundle)
    assert scorer.push_many([]) == []
    assert scorer.samples_scored == 0


def test_score_block_matches_push_lazily(loaded_bundle, stream_profiles):
    """The columnar surface: lazy block == per-sample oracle, byte for byte."""
    samples = _samples(stream_profiles)
    sequential = oracle_verdicts(oracle_monitor(loaded_bundle), samples)
    expected = _lines(sequential)
    columnar = StreamScorer(loaded_bundle)
    block = columnar.score_block(
        [s for s, _, _ in samples], [h for _, h, _ in samples],
        np.vstack([np.asarray(r, dtype=np.float64).ravel()
                   for _, _, r in samples]))
    assert block.to_json_lines() == expected
    assert _lines(block.verdicts()) == expected
    assert len(block) == len(samples)
    assert block.n_alerting == sum(v.alerting for v in sequential)
    assert columnar.samples_scored == len(samples)
    # Alerting rows materialize individually to the same verdicts.
    for row in block.alerting_rows():
        assert block.verdict_at(int(row)).to_json_line() == expected[row]


def test_columnar_encoder_matches_scalar_oracle():
    """``to_json_lines`` == per-row ``verdict_at(...).to_json_line()``.

    A hand-built block covers every encoder edge: all three levels
    (HEALTHY renders ``null`` remaining hours), a stage clipped below
    -1, 0.0 and -0.0 side by side (equal floats, different bytes),
    argmin ties resolved to different types, serials needing JSON
    escapes, and repeated leaf combinations under different serials.
    """
    types = tuple(FailureType)
    columns = [
        # (serial, hour, per-type stages, likely index, level code)
        ("plain", 0, (0.7, 0.2, 0.9), 1, 0),
        ('quo"te', 1, (-0.3, 0.2, -0.1), 0, 1),
        ("back\\slash", 2, (-1.7, -0.95, 0.4), 0, 2),
        ("ctrl\x01\tchar", 3, (0.0, 0.5, 0.5), 0, 0),
        ("non-ascii-\u00e9\u6f22", 4, (-0.0, 0.5, 0.5), 0, 0),
        ("tie-first", 5, (-0.5, -0.5, 0.1), 0, 1),
        ("tie-second", 6, (-0.5, -0.5, 0.1), 1, 1),
        ("plain", 7, (-0.3, 0.2, -0.1), 0, 1),
        ("other", 2**40, (1 / 3, -2 / 3, -1e-13), 1, 2),
    ]
    block = AlertBlock(
        [serial for serial, *_ in columns],
        np.array([hour for _, hour, *_ in columns], dtype=np.int64),
        np.array([stages for _, _, stages, _, _ in columns],
                 dtype=np.float64).T.copy(),
        np.array([likely for *_, likely, _ in columns], dtype=np.int64),
        np.array([code for *_, code in columns], dtype=np.int8),
        types)
    verdicts = VerdictBlock(block)

    def oracle(rows):
        return [verdicts.verdict_at(row).to_json_line() for row in rows]

    everything = list(range(len(columns)))
    lines = verdicts.to_json_lines()
    assert lines == oracle(everything)
    assert verdicts.to_json_lines(everything) == lines
    assert verdicts.to_json_lines(np.array([8, 3, 4, 3])) == oracle(
        [8, 3, 4, 3])
    assert verdicts.to_json_lines(verdicts.alerting_rows()) == oracle(
        verdicts.alerting_rows().tolist())
    assert verdicts.to_json_lines([]) == []
    assert VerdictBlock.empty().to_json_lines() == []
    # the edges really are on the wire
    assert '"hours_remaining":null' in lines[0]
    assert '"LOGICAL":0.0' in lines[3] and '"LOGICAL":-0.0' in lines[4]
    assert '"likely_type":"LOGICAL"' in lines[5]
    assert '"likely_type":"BAD_SECTOR"' in lines[6]
    assert '"serial":"non-ascii-\\u00e9\\u6f22"' in lines[4]


def test_score_block_empty(loaded_bundle):
    scorer = StreamScorer(loaded_bundle)
    block = scorer.score_block(
        [], [], np.empty((0, loaded_bundle.n_attributes)))
    assert len(block) == 0
    assert block.verdicts() == []
    assert scorer.samples_scored == 0


def test_failed_drive_alerts_and_state_tracks(loaded_bundle, mid_fleet):
    scorer = StreamScorer(loaded_bundle)
    failed = mid_fleet.dataset.failed_profiles[0]
    verdicts = _score_profile(scorer, failed)
    assert verdicts[-1].level == AlertLevel.CRITICAL.name
    assert scorer.level_of(failed.serial) is AlertLevel.CRITICAL
    assert failed.serial in scorer.drives_at(AlertLevel.CRITICAL)
    assert scorer.alerts_emitted > 0
    assert scorer.drives_tracked == 1


def test_record_width_mismatch_is_typed(loaded_bundle):
    """Records of the wrong width and hours outside ``int64`` are typed
    refusals that score nothing."""
    scorer = StreamScorer(loaded_bundle)
    width = loaded_bundle.n_attributes
    with pytest.raises(ServeError, match="cannot stack"):
        scorer.push_many([("D1", 0, np.zeros(width)),
                          ("D2", 0, np.zeros(width + 1))])
    with pytest.raises(ServeError, match="bundle expects"):
        scorer.push_many([("D1", 0, np.zeros(width + 1))])
    with pytest.raises(ServeError, match="bundle expects"):
        scorer.score_block(["D1"], [0], np.zeros((1, width + 1)))
    with pytest.raises(ServeError, match="hours must be integers: Python "
                                         "int too large"):
        scorer.score_block(["D1", "D2"], [0, 2**63], np.zeros((2, width)))
    assert scorer.samples_scored == 0
    assert scorer.drives_tracked == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_values_are_refused_before_scoring(loaded_bundle,
                                                      stream_profiles, bad):
    """``score_block`` and ``push_many`` refuse NaN/±Inf naming the first
    bad cell, and the refused batch changes no counter and no drive."""
    scorer = StreamScorer(loaded_bundle)
    profile = stream_profiles[0]
    _score_profile(scorer, profile)
    scored, alerts = scorer.samples_scored, scorer.alerts_emitted
    tracked, level = scorer.drives_tracked, scorer.level_of(profile.serial)
    serials = [profile.serial, "fresh-1", "fresh-2"]
    hours = [10**6, 1, 2]
    matrix = np.array(profile.matrix[:3], dtype=np.float64)
    matrix[1, 2] = bad
    matrix[2, 0] = bad
    message = (f"record row 1, column 2 ({loaded_bundle.attributes[2]!r}) "
               f"is not finite ({bad!r})")
    with pytest.raises(ServeError) as refused:
        scorer.score_block(serials, hours, matrix)
    assert str(refused.value) == message
    with pytest.raises(ServeError) as refused:
        scorer.push_many(zip(serials, hours, matrix))
    assert str(refused.value) == message
    assert (scorer.samples_scored, scorer.alerts_emitted) == (scored, alerts)
    assert scorer.drives_tracked == tracked
    assert scorer.level_of(profile.serial) is level


def test_verdict_json_is_canonical(loaded_bundle, stream_profiles):
    scorer = StreamScorer(loaded_bundle)
    verdict = _score_profile(scorer, stream_profiles[0])[0]
    line = verdict.to_json_line()
    assert line == verdict.to_json_line()     # stable
    assert "\n" not in line
    import json
    payload = json.loads(line)
    assert list(payload) == sorted(payload)   # sorted keys
    assert payload["serial"] == stream_profiles[0].serial


def test_scorer_emits_telemetry(loaded_bundle, stream_profiles):
    observer = TelemetryObserver()
    scorer = StreamScorer(loaded_bundle, observer=observer)
    _score_profile(scorer, stream_profiles[0])
    snapshot = observer.metrics.snapshot()
    assert snapshot["samples_scored"]["value"] == scorer.samples_scored
    assert snapshot["drives_tracked"]["value"] == 1
