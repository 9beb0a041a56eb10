"""Configuration of the simulated fleet.

All knobs of the simulator live in :class:`FleetConfig`; the defaults are
calibrated so that the paper's analysis pipeline reproduces the published
shapes (group mix, degradation-window ranges, attribute manifestations) on
a fleet scaled down from the original 23,395 drives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError

#: Fleet size and failure count of the studied data center, for reference
#: and for full-scale runs.
PAPER_FLEET_SIZE = 23395
PAPER_FAILED_DRIVES = 433
PAPER_FAILURE_RATE = PAPER_FAILED_DRIVES / PAPER_FLEET_SIZE


@dataclass(frozen=True, slots=True)
class ModeMixture:
    """Population mix of the three failure modes among failed drives.

    Defaults are the paper's observed split: 59.6% logical, 7.6%
    bad-sector and 32.8% read/write-head failures.
    """

    logical: float = 0.596
    bad_sector: float = 0.076
    head: float = 0.328

    def __post_init__(self) -> None:
        total = self.logical + self.bad_sector + self.head
        if not 0.999 <= total <= 1.001:
            raise SimulationError(
                f"failure-mode mixture must sum to 1, got {total:.4f}"
            )
        if min(self.logical, self.bad_sector, self.head) < 0:
            raise SimulationError("failure-mode fractions must be non-negative")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.logical, self.bad_sector, self.head)


@dataclass(frozen=True, slots=True)
class FleetConfig:
    """All parameters of a simulated fleet.

    The simulator is deterministic given a config: the same instance
    always produces the same dataset.
    """

    # Population ------------------------------------------------------
    n_drives: int = 4000
    failure_rate: float = PAPER_FAILURE_RATE
    mode_mixture: ModeMixture = field(default_factory=ModeMixture)
    seed: int = 20150301
    drive_model: str = "RP-2015E"

    # Collection policy (paper Section III) ---------------------------
    period_hours: int = 1344            # eight weeks of hourly sampling
    failed_observation_hours: int = 480  # 20-day pre-failure profile
    good_observation_hours: int = 168    # up to 7-day good-drive profile
    # Probability that any individual sample is lost by the collection
    # agent ("Some failed drives might lose a number of samples" — the
    # paper).  The failure record itself is never lost.
    sample_loss_rate: float = 0.0

    # Sector pool ------------------------------------------------------
    total_sectors: int = 976_773_168     # a 500 GB-class drive
    spare_sectors: int = 4096

    # Workload ---------------------------------------------------------
    mean_read_ops_per_hour: float = 360_000.0
    mean_write_ops_per_hour: float = 144_000.0
    diurnal_amplitude: float = 0.25      # fraction of the mean
    workload_noise: float = 0.10         # lognormal sigma of hourly jitter
    # Optional trace-driven load: per-hour demand factors replayed
    # cyclically in place of the synthetic diurnal sine (factor 1.0 = the
    # configured mean).  Lets real utilization traces drive the fleet.
    workload_trace: tuple[float, ...] | None = None

    # Thermal environment -----------------------------------------------
    inlet_temperature_c: float = 24.0
    inlet_temperature_std: float = 0.8
    rack_offset_std_c: float = 2.5       # per-drive placement effect
    activity_heating_c: float = 5.0      # added at full utilization
    temperature_noise_c: float = 0.4

    # Drive age (power-on hours at the start of collection) -------------
    median_age_hours: float = 17_520.0   # two years
    age_sigma: float = 0.6               # lognormal sigma
    poh_health_step_hours: float = 876.0  # health value drops 1 per step

    # Degradation-window ranges per failure mode (inclusive, hours).
    # Bad-sector windows exceed the 20-day observation period on purpose:
    # sector wear-out starts long before the drive is condemned, so the
    # recorded profile captures a (truncated) monotone stretch spanning
    # essentially the whole observation — the paper's Figure 7(b).
    logical_window: tuple[int, int] = (2, 12)
    bad_sector_window: tuple[int, int] = (500, 900)
    head_window: tuple[int, int] = (10, 24)

    # Ramp exponents: displacement from the failure state follows
    # (t / d) ** exponent inside the degradation window, producing the
    # paper's quadratic / linear / cubic signatures.
    logical_exponent: float = 2.0
    bad_sector_exponent: float = 1.0
    head_exponent: float = 3.0

    # Logical failures run hot (paper Section V-A).
    logical_temp_offset_c: float = 9.0
    bad_sector_temp_offset_c: float = 3.0
    head_temp_offset_c: float = 1.5

    # Causal thermal model: the logical-failure hazard grows by this
    # fraction per degree of inlet temperature above the 24 C reference
    # (Arrhenius-like; cf. Sankar et al. on temperature and drive
    # failures).  At the reference inlet the configured mixture and
    # failure rate hold exactly; cooling the room reduces logical
    # failures — the intervention the paper's Section V-A recommends.
    thermal_failure_sensitivity: float = 0.09
    reference_inlet_c: float = 24.0

    def __post_init__(self) -> None:
        if self.n_drives <= 0:
            raise SimulationError("n_drives must be positive")
        if not 0.0 < self.failure_rate < 1.0:
            raise SimulationError("failure_rate must lie in (0, 1)")
        if self.period_hours <= 24:
            raise SimulationError("period_hours must exceed one day")
        if self.failed_observation_hours <= 0 or self.good_observation_hours <= 0:
            raise SimulationError("observation windows must be positive")
        if self.spare_sectors <= 0 or self.total_sectors <= self.spare_sectors:
            raise SimulationError("sector pool sizes are inconsistent")
        if not 0.0 <= self.sample_loss_rate < 1.0:
            raise SimulationError("sample_loss_rate must lie in [0, 1)")
        if self.workload_trace is not None:
            if len(self.workload_trace) == 0:
                raise SimulationError("workload_trace cannot be empty")
            if any(factor < 0 for factor in self.workload_trace):
                raise SimulationError("workload_trace factors must be >= 0")
        for name, window in (
            ("logical_window", self.logical_window),
            ("bad_sector_window", self.bad_sector_window),
            ("head_window", self.head_window),
        ):
            low, high = window
            if not 0 < low <= high:
                raise SimulationError(f"{name} must satisfy 0 < low <= high")

    @property
    def n_failed(self) -> int:
        """Number of failed drives implied by the failure rate."""
        return max(1, round(self.n_drives * self.failure_rate))

    @property
    def n_good(self) -> int:
        return self.n_drives - self.n_failed

    @classmethod
    def small(cls, seed: int = 20150301) -> "FleetConfig":
        """Return a small configuration suitable for unit tests."""
        return cls(n_drives=400, seed=seed)

    @classmethod
    def backup_system(cls, n_drives: int = 4000,
                      seed: int = 20150301) -> "FleetConfig":
        """A dedicated backup-storage fleet, after Ma et al. (FAST'15).

        The paper contrasts its mixed-workload data center with "dedicated
        backup storage systems where bad sector failures dominate": heavy
        sequential writes wear the media, few head or logical failures.
        Used by the generalization experiment to show the characterization
        approach transfers to a different storage system.
        """
        return cls(
            n_drives=n_drives,
            seed=seed,
            mode_mixture=ModeMixture(logical=0.15, bad_sector=0.60,
                                     head=0.25),
            mean_write_ops_per_hour=360_000.0,  # write-heavy backup load
            mean_read_ops_per_hour=144_000.0,
            failure_rate=0.028,                 # higher wear-out rate
        )
