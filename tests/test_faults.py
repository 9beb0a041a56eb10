"""Tests for the fault-injection harness (``repro.faults``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FaultInjectionError
from repro.faults import ChaosConfig, inject_dataset, parse_chaos_spec
from repro.faults.injectors import OUTLIER_SCALE
from repro.obs.observer import TelemetryObserver

EVERYTHING = ChaosConfig(seed=11, drop_rate=0.05, duplicate_rate=0.05,
                         disorder_rate=0.3, truncate_rate=0.2,
                         blackout_rate=0.2, nan_rate=0.03, outlier_rate=0.02)


# -- spec parsing -----------------------------------------------------------


def test_parse_chaos_spec_roundtrip():
    config = parse_chaos_spec("drop=0.1, nan=0.05, seed=7")
    assert config == ChaosConfig(seed=7, drop_rate=0.1, nan_rate=0.05)
    assert config.active


def test_parse_chaos_spec_rejects_unknown_key():
    with pytest.raises(FaultInjectionError, match="unknown fault class"):
        parse_chaos_spec("drop=0.1,gremlins=0.5")


def test_parse_chaos_spec_refuses_bitflip():
    """No injector flips cache bits, so the key must not parse to a no-op."""
    with pytest.raises(FaultInjectionError, match="unknown fault class"):
        parse_chaos_spec("bitflip=0.1")


def test_parse_chaos_spec_rejects_malformed_token():
    with pytest.raises(FaultInjectionError, match="key=value"):
        parse_chaos_spec("drop")


def test_parse_chaos_spec_rejects_duplicate_key():
    with pytest.raises(FaultInjectionError, match="duplicate"):
        parse_chaos_spec("drop=0.1,drop=0.2")


def test_parse_chaos_spec_rejects_unparsable_value():
    with pytest.raises(FaultInjectionError, match="cannot parse"):
        parse_chaos_spec("drop=lots")


def test_parse_chaos_spec_requires_a_fault_class():
    with pytest.raises(FaultInjectionError, match="names no fault class"):
        parse_chaos_spec("seed=7")


def test_chaos_config_validates_rates():
    with pytest.raises(FaultInjectionError, match=r"\[0, 1\]"):
        ChaosConfig(drop_rate=1.5)
    with pytest.raises(FaultInjectionError, match=r"\[0, 1\]"):
        ChaosConfig(nan_rate=-0.1)


def test_inactive_config_injects_nothing(small_dataset):
    raw, log = inject_dataset(small_dataset, ChaosConfig(seed=3))
    assert log.total == 0
    assert len(raw) == len(small_dataset.profiles)
    for corrupted, original in zip(raw, small_dataset.profiles):
        assert np.array_equal(corrupted.hours, original.hours)
        assert np.array_equal(corrupted.matrix, original.matrix)


# -- determinism ------------------------------------------------------------


def test_equal_configs_corrupt_byte_identically(small_dataset):
    first, first_log = inject_dataset(small_dataset, EVERYTHING)
    second, second_log = inject_dataset(small_dataset, EVERYTHING)
    assert first_log.to_dict() == second_log.to_dict()
    for a, b in zip(first, second):
        assert a.serial == b.serial
        assert a.hours.tobytes() == b.hours.tobytes()
        assert a.matrix.tobytes() == b.matrix.tobytes()


def test_different_seeds_corrupt_differently(small_dataset):
    base = inject_dataset(small_dataset, EVERYTHING)[0]
    other = inject_dataset(
        small_dataset,
        ChaosConfig(**{**{f: getattr(EVERYTHING, f)
                          for f in ("drop_rate", "duplicate_rate",
                                    "disorder_rate", "truncate_rate",
                                    "blackout_rate", "nan_rate",
                                    "outlier_rate")}, "seed": 12}),
    )[0]
    assert any(a.hours.tobytes() != b.hours.tobytes()
               or a.matrix.tobytes() != b.matrix.tobytes()
               for a, b in zip(base, other))


def test_fault_classes_use_independent_streams(small_dataset):
    """Enabling a second fault class must not move the first one's
    decisions — each class draws from its own child stream."""
    drop_only = ChaosConfig(seed=5, drop_rate=0.1)
    drop_and_nan = ChaosConfig(seed=5, drop_rate=0.1, nan_rate=0.2)
    _, log_a = inject_dataset(small_dataset, drop_only)
    _, log_b = inject_dataset(small_dataset, drop_and_nan)
    assert log_a.counts["drop"] == log_b.counts["drop"]


def test_input_dataset_is_never_mutated(small_dataset):
    before = [(p.hours.copy(), p.matrix.copy())
              for p in small_dataset.profiles]
    inject_dataset(small_dataset, EVERYTHING)
    for profile, (hours, matrix) in zip(small_dataset.profiles, before):
        assert np.array_equal(profile.hours, hours)
        assert np.array_equal(profile.matrix, matrix)


# -- injected shapes --------------------------------------------------------


def test_outliers_land_at_the_documented_scale(small_dataset):
    raw, log = inject_dataset(small_dataset,
                              ChaosConfig(seed=2, outlier_rate=0.05))
    assert log.counts["outlier"] > 0
    extremes = np.concatenate([np.abs(p.matrix).max(axis=None, keepdims=True)
                               for p in raw])
    assert extremes.max() >= OUTLIER_SCALE


def test_log_counts_cover_every_active_class(small_dataset):
    observer = TelemetryObserver()
    _, log = inject_dataset(small_dataset, EVERYTHING, observer=observer)
    assert set(log.counts) == {"drop", "duplicate", "disorder", "truncate",
                               "blackout", "nan", "outlier"}
    assert log.to_dict()["total_faults"] == log.total > 0
    snapshot = observer.metrics.snapshot()
    assert snapshot["faults_injected"]["value"] == log.total
    assert snapshot["faults_injected_drop"]["value"] == log.counts["drop"]
