"""Fleet orchestration: build the drive population and run the simulation.

:class:`FleetSimulator` assigns every drive an outcome (good, or one of
the three failure modes at the configured mixture), schedules failure
times over the eight-week collection period, applies the observation
policy (20-day pre-failure profiles, truncated when the drive fails early
in the period; up to 7-day good-drive profiles) and simulates each drive
independently.

The result carries the ground-truth failure mode of every drive — the
studied data center had no such labels (that is exactly why the paper
clusters), but the simulator's labels let the test suite verify that the
categorization pipeline *recovers* the true structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import DiskDataset
from repro.obs.observer import PipelineObserver, resolve_observer
from repro.sim.config import FleetConfig
from repro.sim.drive import DriveSpec, simulate_drive
from repro.sim.failure_modes import FailureMode
from repro.sim.rng import child_rng

#: Share of failures occurring in the first 20 days of the period, by
#: failure mode.  The paper observes only 51.3% of failed drives with
#: full 20-day profiles — below the 65% a constant hazard would give —
#: indicating an infant-mortality excess early in the collection window
#: (cf. Xin et al.).  Infant mortality is a logical/electronic phenomenon;
#: bad-sector failures are wear-out events that need hundreds of hours of
#: accumulation, so their early share is small.  The mixture-weighted
#: average stays at ~0.47, preserving the Figure 1 histogram shape.
_EARLY_FAILURE_FRACTION = {
    FailureMode.LOGICAL: 0.55,
    FailureMode.BAD_SECTOR: 0.10,
    FailureMode.HEAD: 0.40,
}

#: Share of good drives whose profiles span the full 7-day window.
_FULL_GOOD_PROFILE_FRACTION = 0.8


@dataclass(frozen=True, slots=True)
class FleetResult:
    """Output of a fleet simulation.

    ``true_modes`` maps each serial to its ground-truth failure mode
    (including :attr:`FailureMode.GOOD` for surviving drives).
    """

    dataset: DiskDataset
    true_modes: dict[str, FailureMode]
    config: FleetConfig

    def failed_serials(self, mode: FailureMode | None = None) -> list[str]:
        """Serials of failed drives, optionally filtered to one mode."""
        return [
            serial for serial, true_mode in self.true_modes.items()
            if true_mode.is_failure and (mode is None or true_mode is mode)
        ]


class FleetSimulator:
    """Deterministic simulator for one fleet configuration.

    Every drive draws from its own ``child_rng(seed, serial, ...)``
    stream, so a drive's profile does not depend on the others.
    """

    def __init__(self, config: FleetConfig,
                 observer: PipelineObserver | None = None) -> None:
        self._config = config
        self._observer = resolve_observer(observer)

    @property
    def config(self) -> FleetConfig:
        return self._config

    def thermal_hazard_factor(self) -> float:
        """Multiplier on the logical-failure hazard from the inlet temp."""
        config = self._config
        return float(np.exp(
            config.thermal_failure_sensitivity
            * (config.inlet_temperature_c - config.reference_inlet_c)
        ))

    def build_specs(self) -> list[DriveSpec]:
        """Construct the population schedule without simulating."""
        config = self._config
        rng = child_rng(config.seed, "fleet", "schedule")
        specs: list[DriveSpec] = []

        modes = self._failure_mode_assignment(rng)
        for index, mode in enumerate(modes):
            serial = f"{config.drive_model}-F{index:05d}"
            failure_hour = self._sample_failure_hour(rng, mode)
            start = max(0, failure_hour - (config.failed_observation_hours - 1))
            specs.append(
                DriveSpec(
                    serial=serial,
                    mode=mode,
                    start_hour=start,
                    n_samples=failure_hour - start + 1,
                    failure_hour=failure_hour,
                )
            )

        n_good = config.n_drives - len(modes)
        for index in range(n_good):
            serial = f"{config.drive_model}-G{index:05d}"
            if rng.random() < _FULL_GOOD_PROFILE_FRACTION:
                length = config.good_observation_hours
            else:
                length = int(rng.integers(24, config.good_observation_hours + 1))
            start = int(rng.integers(0, config.period_hours - length + 1))
            specs.append(
                DriveSpec(
                    serial=serial,
                    mode=FailureMode.GOOD,
                    start_hour=start,
                    n_samples=length,
                )
            )
        return specs

    def run(self) -> FleetResult:
        """Simulate every drive and return the labeled dataset."""
        obs = self._observer
        with obs.span("simulate-fleet", n_drives=self._config.n_drives,
                      seed=self._config.seed):
            specs = self.build_specs()
            dataset = DiskDataset([simulate_drive(spec, self._config)
                                   for spec in specs])
        obs.count("drives_simulated", len(specs))
        n_failed = sum(1 for spec in specs if spec.mode.is_failure)
        obs.event("fleet simulated", drives=len(specs), failed=n_failed)
        true_modes = {spec.serial: spec.mode for spec in specs}
        return FleetResult(dataset=dataset, true_modes=true_modes,
                           config=self._config)

    def _failure_mode_assignment(self, rng: np.random.Generator) -> list[FailureMode]:
        """Deterministic largest-remainder allocation of the mode mixture.

        The logical-failure weight is scaled by the thermal hazard
        factor, and the total failure count with it, so a hotter room
        produces more failures — almost all of them logical.
        """
        config = self._config
        factor = self.thermal_hazard_factor()
        base = config.mode_mixture.as_tuple()
        weights = (base[0] * factor, base[1], base[2])
        scale = sum(weights)
        n_failed = max(1, round(config.n_drives * config.failure_rate * scale))
        n_failed = min(n_failed, config.n_drives - 1)
        fractions = tuple(weight / scale for weight in weights)
        modes = (FailureMode.LOGICAL, FailureMode.BAD_SECTOR, FailureMode.HEAD)
        exact = [fraction * n_failed for fraction in fractions]
        counts = [int(np.floor(value)) for value in exact]
        remainders = [value - count for value, count in zip(exact, counts)]
        while sum(counts) < n_failed:
            best = int(np.argmax(remainders))
            counts[best] += 1
            remainders[best] = -1.0
        assignment = [
            mode for mode, count in zip(modes, counts) for _ in range(count)
        ]
        rng.shuffle(assignment)
        return assignment

    def _sample_failure_hour(self, rng: np.random.Generator,
                             mode: FailureMode) -> int:
        """Failure time: infant-mortality excess plus a constant hazard."""
        config = self._config
        horizon = config.failed_observation_hours
        if rng.random() < _EARLY_FAILURE_FRACTION[mode]:
            return int(rng.integers(24, horizon))
        return int(rng.integers(horizon, config.period_hours))


def simulate_fleet(config: FleetConfig | None = None,
                   observer: PipelineObserver | None = None) -> FleetResult:
    """Simulate a fleet with ``config`` (default configuration if omitted)."""
    return FleetSimulator(config if config is not None else FleetConfig(),
                          observer=observer).run()
