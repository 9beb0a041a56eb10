"""Tests for the online degradation monitor."""

import numpy as np
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
    assert monitor.level_of(profile.serial) is AlertLevel.HEALTHY


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


def test_drives_at_level_partition(monitor, monitor_parts):
    *_, fleet = monitor_parts
    good = fleet.dataset.good_profiles[0]
    failed = fleet.dataset.failed_profiles[0]
    monitor.observe(good.serial, 0, good.matrix[0])
    monitor.observe(failed.serial, 0, failed.matrix[-1])
    tracked = set()
    for level in AlertLevel:
        tracked.update(monitor.drives_at(level))
    assert tracked == {good.serial, failed.serial}


def test_history_rolls(monitor_parts):
    """However many records a drive sends, its state is its last level."""
    predictor, normalizer, fleet = monitor_parts
    monitor = DegradationMonitor(predictor, normalizer, history_hours=5)
    profile = fleet.dataset.good_profiles[0]
    for hour, row in zip(profile.hours[:10], profile.matrix[:10]):
        monitor.observe(profile.serial, int(hour), row)
    drives = monitor.state.snapshot()["drives"]
    assert drives == {profile.serial: {
        "level": monitor.level_of(profile.serial).name}}


def test_untrained_predictor_rejected(monitor_parts):
    _, normalizer, _ = monitor_parts
    with pytest.raises(ReproError):
        DegradationMonitor(DegradationPredictor(), normalizer)


def test_threshold_validation(monitor_parts):
    predictor, normalizer, _ = monitor_parts
    with pytest.raises(ReproError):
        DegradationMonitor(predictor, normalizer,
                           watch_threshold=-0.5, critical_threshold=-0.1)
    with pytest.raises(ReproError):
        DegradationMonitor(predictor, normalizer, history_hours=0)


def test_alert_levels_ordered():
    assert AlertLevel.HEALTHY < AlertLevel.WATCH < AlertLevel.CRITICAL
