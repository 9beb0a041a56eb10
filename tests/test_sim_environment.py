"""Tests for the thermal environment and power-on clock."""

import numpy as np
import pytest

from repro.sim.config import FleetConfig
from repro.sim.environment import PowerOnClock, ThermalEnvironment
from repro.sim.rng import child_rng


CONFIG = FleetConfig(n_drives=100)


def test_mode_offset_raises_temperature():
    rng_a = child_rng(1, "d", "thermal")
    rng_b = child_rng(1, "d", "thermal")
    cool = ThermalEnvironment.sample(CONFIG, rng_a, mode_offset_c=0.0)
    hot = ThermalEnvironment.sample(CONFIG, rng_b, mode_offset_c=9.0)
    utilization = np.full(200, 0.5)
    t_cool = cool.temperature_series(utilization, child_rng(2, "x"))
    t_hot = hot.temperature_series(utilization, child_rng(2, "x"))
    assert t_hot.mean() - t_cool.mean() == pytest.approx(9.0)


def test_activity_heats_the_drive():
    environment = ThermalEnvironment(CONFIG, rack_offset_c=0.0,
                                     mode_offset_c=0.0)
    idle = environment.temperature_series(np.zeros(500), child_rng(5, "a"))
    busy = environment.temperature_series(np.ones(500), child_rng(5, "a"))
    assert busy.mean() - idle.mean() > 3.0


class TestPowerOnClock:
    def test_raw_series_advances_with_hours(self):
        clock = PowerOnClock(age_at_start_hours=1000.0, step_hours=876.0)
        raw = clock.raw_series(np.array([0, 1, 10]))
        np.testing.assert_allclose(raw, [1000.0, 1001.0, 1010.0])

    def test_health_is_stepwise(self):
        clock = PowerOnClock(age_at_start_hours=870.0, step_hours=876.0)
        health = clock.health_series(np.arange(0, 20))
        # Crosses the 876-hour boundary at hour 6: one unit step down.
        assert health[0] == 100.0
        assert health[-1] == 99.0
        assert set(np.diff(health)) <= {0.0, -1.0}

    def test_health_floors_at_one(self):
        clock = PowerOnClock(age_at_start_hours=1.0e6, step_hours=876.0)
        assert clock.health_series(np.array([0]))[0] == 1.0

    def test_age_bias_scales_median_age(self):
        young = [PowerOnClock.sample(CONFIG, child_rng(i, "a"), age_bias=1.0)
                 .age_at_start_hours for i in range(200)]
        old = [PowerOnClock.sample(CONFIG, child_rng(i, "a"), age_bias=2.5)
               .age_at_start_hours for i in range(200)]
        assert np.median(old) > 1.8 * np.median(young)
