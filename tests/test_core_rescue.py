"""Tests for rescue-time estimation."""

import numpy as np
import pytest

from repro.core.rescue import (
    estimate_remaining_hours,
    rescue_estimate,
)
from repro.core.signature_models import (
    PREDICTION_WINDOW_BY_TYPE,
    signature_for_type,
)
from repro.core.taxonomy import FailureType
from repro.errors import SignatureError


def test_failure_stage_means_zero_hours():
    for failure_type in FailureType:
        assert estimate_remaining_hours(-1.0, failure_type) == 0.0


def test_window_boundary_means_full_window():
    for failure_type in FailureType:
        window = PREDICTION_WINDOW_BY_TYPE[failure_type]
        hours = estimate_remaining_hours(-1.0e-9, failure_type)
        assert hours == pytest.approx(window, rel=1e-3)


def test_healthy_stage_is_infinite():
    assert estimate_remaining_hours(0.0, FailureType.HEAD) == np.inf
    assert estimate_remaining_hours(0.7, FailureType.HEAD) == np.inf


@pytest.mark.parametrize("failure_type", list(FailureType))
def test_inversion_round_trips_the_signature(failure_type):
    window = PREDICTION_WINDOW_BY_TYPE[failure_type]
    signature = signature_for_type(failure_type, window)
    for t_true in (1.0, window / 4.0, window / 2.0, window - 1.0):
        stage = float(signature(np.array([t_true]))[0])
        recovered = estimate_remaining_hours(stage, failure_type)
        assert recovered == pytest.approx(t_true, rel=1e-9)


def test_remaining_hours_monotone_in_stage():
    stages = np.linspace(-1.0, -0.01, 25)
    hours = [estimate_remaining_hours(s, FailureType.LOGICAL)
             for s in stages]
    assert all(a < b for a, b in zip(hours, hours[1:]))


def test_custom_window_scales_estimate():
    half = estimate_remaining_hours(-0.5, FailureType.BAD_SECTOR, window=100)
    assert half == pytest.approx(50.0)


def test_stage_clipped_below_minus_one():
    assert estimate_remaining_hours(-5.0, FailureType.HEAD) == 0.0


def test_non_finite_stage_rejected():
    with pytest.raises(SignatureError):
        estimate_remaining_hours(float("nan"), FailureType.HEAD)
    with pytest.raises(SignatureError):
        estimate_remaining_hours(-0.5, FailureType.HEAD, window=0)


def test_rescue_estimate_bundle():
    estimate = rescue_estimate(-0.75, FailureType.HEAD)
    assert np.isfinite(estimate.hours_remaining)
    assert estimate.window == 24
    assert estimate.urgent(deadline_hours=24)
    healthy = rescue_estimate(0.9, FailureType.LOGICAL)
    assert np.isinf(healthy.hours_remaining)
    assert not healthy.urgent(1.0e6)
