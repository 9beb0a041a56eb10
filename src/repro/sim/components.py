"""Physical component models of a simulated drive.

Each component owns the per-operation event probabilities that feed the
SMART counters: the media surface produces read errors (raw read error
rate, hardware-ECC recoveries), the head assembly produces seek errors and
high-fly writes, and the spindle motor determines spin-up time.  Component
parameters are drawn per drive so the fleet shows realistic unit-to-unit
spread even among good drives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class MediaSurface:
    """Magnetic media: source of read errors.

    ``read_error_prob`` is the per-read probability of a raw read error;
    ``ecc_recovery_fraction`` of those are recovered by hardware ECC and
    show up in the HER counter instead of escalating.
    """

    read_error_prob: float
    ecc_recovery_fraction: float

    @classmethod
    def sample(cls, rng: np.random.Generator) -> "MediaSurface":
        prob = rng.lognormal(mean=np.log(1.0e-6), sigma=0.4)
        recovery = rng.uniform(0.90, 0.99)
        return cls(read_error_prob=float(prob),
                   ecc_recovery_fraction=float(recovery))

    def read_error_rate(self, read_ops: np.ndarray,
                        stress: np.ndarray) -> np.ndarray:
        """Expected raw read errors per hour under a stress multiplier."""
        return read_ops * self.read_error_prob * stress


@dataclass(frozen=True, slots=True)
class HeadAssembly:
    """Read/write heads: source of seek errors, high-fly writes and
    (through degraded writes) sector reallocations."""

    seek_error_prob: float
    high_fly_prob: float
    write_error_prob: float

    @classmethod
    def sample(cls, rng: np.random.Generator) -> "HeadAssembly":
        seek = rng.lognormal(mean=np.log(3.0e-8), sigma=0.4)
        high_fly = rng.lognormal(mean=np.log(1.0e-8), sigma=0.5)
        write = rng.lognormal(mean=np.log(2.0e-9), sigma=0.5)
        return cls(seek_error_prob=float(seek),
                   high_fly_prob=float(high_fly),
                   write_error_prob=float(write))

    def seek_error_rate(self, total_ops: np.ndarray,
                        stress: np.ndarray) -> np.ndarray:
        """Expected seek errors per hour."""
        return total_ops * self.seek_error_prob * stress

    def high_fly_rate(self, write_ops: np.ndarray,
                      stress: np.ndarray) -> np.ndarray:
        """Expected high-fly writes per hour."""
        return write_ops * self.high_fly_prob * stress

    def write_error_rate(self, write_ops: np.ndarray,
                         stress: np.ndarray) -> np.ndarray:
        """Expected unrecoverable write errors per hour (reallocations)."""
        return write_ops * self.write_error_prob * stress


@dataclass(frozen=True, slots=True)
class SpindleMotor:
    """Spindle and bearings: determine spin-up time.

    Spin-up time grows with bearing wear (a function of drive age) and
    with operating temperature, and carries per-measurement jitter.
    """

    base_spin_up_ms: float
    wear_ms_per_khour: float
    thermal_ms_per_c: float
    jitter_ms: float

    @classmethod
    def sample(cls, rng: np.random.Generator) -> "SpindleMotor":
        return cls(
            base_spin_up_ms=float(rng.normal(4000.0, 250.0)),
            wear_ms_per_khour=float(rng.lognormal(np.log(18.0), 0.4)),
            thermal_ms_per_c=float(rng.normal(22.0, 4.0)),
            jitter_ms=float(rng.uniform(30.0, 80.0)),
        )

    def spin_up_series(self, age_hours: np.ndarray, temperature_c: np.ndarray,
                       stress: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
        """Spin-up time (ms) at each sample."""
        wear = self.wear_ms_per_khour * age_hours / 1000.0
        thermal = self.thermal_ms_per_c * (temperature_c - 24.0)
        jitter = rng.normal(0.0, self.jitter_ms, size=age_hours.shape[0])
        return (self.base_spin_up_ms + wear + thermal) * stress + jitter
