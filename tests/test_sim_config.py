"""Tests for FleetConfig and ModeMixture validation."""

import pytest

from repro.errors import SimulationError
from repro.sim.config import (
    PAPER_FAILURE_RATE,
    PAPER_FLEET_SIZE,
    FleetConfig,
    ModeMixture,
)


def test_default_mixture_is_papers_split():
    mixture = ModeMixture()
    assert mixture.as_tuple() == (0.596, 0.076, 0.328)


def test_mixture_must_sum_to_one():
    with pytest.raises(SimulationError):
        ModeMixture(logical=0.5, bad_sector=0.1, head=0.1)


def test_mixture_rejects_negative_fraction():
    with pytest.raises(SimulationError):
        ModeMixture(logical=1.2, bad_sector=-0.4, head=0.2)


def test_paper_scale_constants():
    assert PAPER_FLEET_SIZE == 23395
    assert PAPER_FAILURE_RATE == pytest.approx(433 / 23395)


def test_n_failed_matches_rate():
    config = FleetConfig(n_drives=1000)
    assert config.n_failed == round(1000 * PAPER_FAILURE_RATE)
    assert config.n_failed + config.n_good == 1000


def test_n_failed_at_least_one():
    config = FleetConfig(n_drives=10)
    assert config.n_failed == 1


@pytest.mark.parametrize("kwargs", [
    {"n_drives": 0},
    {"failure_rate": 0.0},
    {"failure_rate": 1.0},
    {"period_hours": 24},
    {"failed_observation_hours": 0},
    {"spare_sectors": 0},
    {"logical_window": (0, 5)},
    {"head_window": (30, 10)},
])
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(SimulationError):
        FleetConfig(**kwargs)


def test_config_is_hashable_and_frozen():
    config = FleetConfig()
    with pytest.raises(AttributeError):
        config.n_drives = 5
