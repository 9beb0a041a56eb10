"""Tests for the drive component models."""

import numpy as np

from repro.sim.components import HeadAssembly, MediaSurface, SpindleMotor
from repro.sim.rng import child_rng


def test_media_error_rate_scales_with_ops_and_stress():
    media = MediaSurface(read_error_prob=1.0e-6, ecc_recovery_fraction=0.95)
    ops = np.array([1.0e6, 2.0e6])
    base = media.read_error_rate(ops, np.ones(2))
    np.testing.assert_allclose(base, [1.0, 2.0])
    stressed = media.read_error_rate(ops, np.full(2, 10.0))
    np.testing.assert_allclose(stressed, base * 10.0)


def test_head_rates_scale_linearly():
    heads = HeadAssembly(seek_error_prob=1e-8, high_fly_prob=1e-8,
                         write_error_prob=1e-9)
    ops = np.array([1.0e8])
    assert heads.seek_error_rate(ops, np.ones(1))[0] == 1.0
    assert heads.high_fly_rate(ops, np.full(1, 3.0))[0] == 3.0
    assert heads.write_error_rate(ops, np.full(1, 2.0))[0] == 0.2


def test_spindle_wear_and_heat_slow_spin_up():
    motor = SpindleMotor(base_spin_up_ms=4000.0, wear_ms_per_khour=20.0,
                         thermal_ms_per_c=20.0, jitter_ms=0.0)
    rng = child_rng(0, "x")
    young_cool = motor.spin_up_series(np.array([0.0]), np.array([24.0]),
                                      np.ones(1), rng)
    old_hot = motor.spin_up_series(np.array([50000.0]), np.array([44.0]),
                                   np.ones(1), rng)
    assert old_hot[0] > young_cool[0] + 1000.0


def test_component_sampling_gives_unit_variation():
    rngs = [child_rng(9, f"drive-{i}", "components") for i in range(50)]
    probs = [MediaSurface.sample(rng).read_error_prob for rng in rngs]
    assert min(probs) < max(probs)
    assert all(p > 0 for p in probs)


def test_sampling_is_deterministic():
    a = MediaSurface.sample(child_rng(1, "d", "c"))
    b = MediaSurface.sample(child_rng(1, "d", "c"))
    assert a == b
