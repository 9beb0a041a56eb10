"""Tests for AFR and Weibull failure-time fitting."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.stats.afr import (
    HOURS_PER_YEAR,
    annualized_failure_rate,
    fit_weibull,
)


class TestAFR:
    def test_papers_fleet_annualizes_to_twelve_percent(self):
        afr = annualized_failure_rate(433, 23395, 1344)
        assert afr == pytest.approx(0.1207, abs=0.002)

    def test_full_year_period_is_plain_fraction(self):
        afr = annualized_failure_rate(30, 1000, HOURS_PER_YEAR)
        assert afr == pytest.approx(0.03)

    def test_shorter_periods_scale_up(self):
        half_year = annualized_failure_rate(15, 1000, HOURS_PER_YEAR / 2)
        assert half_year == pytest.approx(0.03)

    def test_validation(self):
        with pytest.raises(ReproError):
            annualized_failure_rate(-1, 100, 100)
        with pytest.raises(ReproError):
            annualized_failure_rate(101, 100, 100)
        with pytest.raises(ReproError):
            annualized_failure_rate(1, 100, 0)


class TestWeibull:
    def test_recovers_known_parameters(self, rng):
        samples = rng.weibull(2.0, size=5000) * 300.0
        fit = fit_weibull(samples)
        assert fit.shape == pytest.approx(2.0, rel=0.1)
        assert fit.scale == pytest.approx(300.0, rel=0.1)
        assert fit.hazard_is_increasing

    def test_detects_decreasing_hazard(self, rng):
        samples = rng.weibull(0.6, size=5000) * 300.0
        fit = fit_weibull(samples)
        assert fit.hazard_is_decreasing

    def test_hazard_shape_direction(self, rng):
        increasing = fit_weibull(rng.weibull(2.5, size=2000) * 100.0)
        t = np.array([10.0, 100.0, 300.0])
        hazards = increasing.hazard(t)
        assert hazards[0] < hazards[1] < hazards[2]

    def test_validation(self):
        with pytest.raises(ReproError):
            fit_weibull(np.array([1.0, 2.0]))
        with pytest.raises(ReproError):
            fit_weibull(np.array([1.0, -2.0, 3.0]))


def test_failure_rates_experiment(mid_fleet):
    from repro.experiments import failure_rates
    result = failure_rates.run(mid_fleet)
    # Both fleets share the configured period rate -> identical AFR.
    assert result.data["afr"] == pytest.approx(result.data["paper_afr"],
                                               rel=0.05)
    assert 0.05 < result.data["afr"] < 0.2
    assert 0.3 < result.data["weibull_shape"] < 3.0
