"""Tests for the online degradation monitor."""

import pytest

from repro.core.monitor import AlertLevel, DegradationMonitor
from repro.core.prediction import DegradationPredictor
from repro.core.taxonomy import FailureType
from repro.errors import ReproError


@pytest.fixture(scope="module")
def monitor_parts(mid_fleet, mid_report):
    predictor = DegradationPredictor(seed=7)
    predictor.evaluate_all(mid_report.dataset, mid_report.categorization)
    # The monitor consumes RAW records; it owns the normalization.
    normalizer = mid_fleet.dataset.fit_normalizer()
    return predictor, normalizer, mid_fleet


@pytest.fixture()
def monitor(monitor_parts):
    predictor, normalizer, _ = monitor_parts
    return DegradationMonitor(predictor, normalizer)


def test_good_drive_stays_healthy(monitor, monitor_parts):
    *_, fleet = monitor_parts
    profile = fleet.dataset.good_profiles[0]
    alerts = monitor.replay(profile)
    levels = {alert.level for alert in alerts}
    assert levels == {AlertLevel.HEALTHY}


def test_failed_drive_escalates_to_critical(monitor, monitor_parts):
    *_, fleet = monitor_parts
    from repro.sim.failure_modes import FailureMode
    serial = fleet.failed_serials(FailureMode.BAD_SECTOR)[0]
    profile = fleet.dataset.get(serial)
    alerts = monitor.replay(profile)
    assert alerts[-1].level is AlertLevel.CRITICAL
    # Severity never matters before degradation: the first verdicts sit
    # below CRITICAL for a long-window failure observed from the start.
    assert alerts[-1].stage < alerts[0].stage


def test_alert_carries_per_type_estimates(monitor, monitor_parts):
    *_, fleet = monitor_parts
    profile = fleet.dataset.failed_profiles[0]
    alert = monitor.observe(profile.serial, 0, profile.matrix[-1])
    assert set(alert.estimates) == set(FailureType)
    assert alert.likely_type in FailureType
    assert alert.hours_remaining >= 0.0


def test_untrained_predictor_rejected(monitor_parts):
    _, normalizer, _ = monitor_parts
    with pytest.raises(ReproError):
        DegradationMonitor(DegradationPredictor(), normalizer)


def test_threshold_validation(monitor_parts):
    predictor, normalizer, _ = monitor_parts
    with pytest.raises(ReproError):
        DegradationMonitor(predictor, normalizer,
                           watch_threshold=-0.5, critical_threshold=-0.1)


def test_alert_levels_ordered():
    assert AlertLevel.HEALTHY < AlertLevel.WATCH < AlertLevel.CRITICAL
