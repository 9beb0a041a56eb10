"""Environmental models: datacenter thermals and the power-on clock.

The paper's two environmental attributes are drive temperature (TC) and
power-on hours (POH).  Temperature is produced by a simple datacenter
thermal chain — room inlet temperature, a static per-drive placement
offset (rack position), activity-dependent self-heating and sensor noise.
POH follows the quirk documented in Section IV-D: the one-byte health
value drops by one only every 876 power-on hours, so consecutive hourly
samples usually repeat the same value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.config import FleetConfig


@dataclass(frozen=True, slots=True)
class ThermalEnvironment:
    """Thermal chain of one drive within the datacenter."""

    config: FleetConfig
    rack_offset_c: float
    mode_offset_c: float

    @classmethod
    def sample(cls, config: FleetConfig, rng: np.random.Generator,
               mode_offset_c: float = 0.0) -> "ThermalEnvironment":
        """Draw the static placement offset for one drive."""
        offset = rng.normal(0.0, config.rack_offset_std_c)
        return cls(config=config, rack_offset_c=float(offset),
                   mode_offset_c=float(mode_offset_c))

    def temperature_series(self, utilization: np.ndarray,
                           rng: np.random.Generator) -> np.ndarray:
        """Return hourly drive temperature (deg C) given utilization."""
        config = self.config
        n_hours = utilization.shape[0]
        inlet = config.inlet_temperature_c + rng.normal(
            0.0, config.inlet_temperature_std, size=n_hours
        )
        heating = config.activity_heating_c * utilization
        noise = rng.normal(0.0, config.temperature_noise_c, size=n_hours)
        return inlet + self.rack_offset_c + self.mode_offset_c + heating + noise


@dataclass(frozen=True, slots=True)
class PowerOnClock:
    """Power-on-hours counter of one drive.

    ``age_at_start_hours`` is the drive's accumulated operating time when
    the collection period begins; the drive is assumed powered on
    throughout the collection window (enterprise drives in a production
    data center are).
    """

    age_at_start_hours: float
    step_hours: float

    @classmethod
    def sample(cls, config: FleetConfig, rng: np.random.Generator,
               age_bias: float = 1.0) -> "PowerOnClock":
        """Draw a drive age from the fleet's lognormal age distribution.

        ``age_bias`` scales the median: failure modes that afflict old
        drives (head failures) pass a bias above one, modes hitting young
        drives pass a bias below one.
        """
        age = rng.lognormal(
            mean=np.log(config.median_age_hours * age_bias),
            sigma=config.age_sigma,
        )
        return cls(age_at_start_hours=float(age),
                   step_hours=config.poh_health_step_hours)

    def raw_series(self, hours: np.ndarray) -> np.ndarray:
        """Raw POH counter at each absolute sample hour."""
        return self.age_at_start_hours + np.asarray(hours, dtype=np.float64)

    def health_series(self, hours: np.ndarray) -> np.ndarray:
        """One-byte POH health value at each sample hour.

        The value starts at 100 for a fresh drive and decreases by one
        every ``step_hours`` of operation, floored at 1 — the stepwise
        behaviour the paper had to smooth before correlation analysis.
        """
        raw = self.raw_series(hours)
        return np.maximum(1.0, 100.0 - np.floor(raw / self.step_hours))
