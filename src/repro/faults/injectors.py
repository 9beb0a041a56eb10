"""Deterministic, seeded corruption of datasets.

Field SMART telemetry does not fail politely: samples go missing,
sensors black out, decoders emit wild values, collectors upload rows
twice or out of order, and drives get pulled before their last batch
lands.  :func:`inject_dataset` reproduces exactly those failure shapes
on a clean :class:`~repro.data.dataset.DiskDataset`, driven by a
:class:`~repro.faults.config.ChaosConfig`.

Two properties make the injectors usable as a test harness rather than
a fuzzer:

* **Determinism** — every decision draws from a
  :func:`repro.sim.rng.child_rng` stream keyed by
  ``(seed, drive serial, fault class)``, so equal configs corrupt equal
  datasets byte for byte, and adding a fault class never perturbs the
  streams of the others.
* **Leniency** — the output is a list of :class:`RawProfile` records,
  a container with *no* validation, because the whole point is to
  produce data that :class:`~repro.smart.profile.HealthProfile` would
  reject.  Feed them to :func:`repro.data.sanitize.sanitize_profiles`
  to exercise the quarantine path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import DiskDataset
from repro.data.sanitize import RawProfile
from repro.faults.config import ChaosConfig
from repro.obs.observer import PipelineObserver, resolve_observer
from repro.sim.rng import child_rng

#: Magnitude of injected outliers relative to normal values.  Large
#: enough that the sanitizer's conservative screen cannot miss them.
OUTLIER_SCALE = 1.0e6

#: Fixed application order; later injectors see the output of earlier
#: ones, so this order is part of the determinism contract.
FAULT_ORDER = ("truncate", "drop", "duplicate", "disorder",
               "blackout", "nan", "outlier")


@dataclass(slots=True)
class FaultLog:
    """What one injection pass actually did, for reports and tests.

    ``counts`` holds affected units per fault class (samples for
    sample-level faults, drives for drive-level ones); ``by_drive``
    maps each corrupted serial to the classes that hit it.
    """

    seed: int
    counts: dict[str, int] = field(default_factory=dict)
    by_drive: dict[str, list[str]] = field(default_factory=dict)

    def record(self, fault: str, serial: str, units: int = 1) -> None:
        if units <= 0:
            return
        self.counts[fault] = self.counts.get(fault, 0) + units
        classes = self.by_drive.setdefault(serial, [])
        if fault not in classes:
            classes.append(fault)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def to_dict(self) -> dict[str, object]:
        """Deterministic plain-dict form for the data-quality section."""
        return {
            "seed": self.seed,
            "total_faults": self.total,
            "counts": {fault: self.counts[fault]
                       for fault in sorted(self.counts)},
            "drives_affected": len(self.by_drive),
        }


def _rng(config: ChaosConfig, serial: str, fault: str) -> np.random.Generator:
    return child_rng(config.seed, "chaos", serial, fault)


def _inject_profile(serial: str, hours: np.ndarray, matrix: np.ndarray,
                    config: ChaosConfig, log: FaultLog,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Apply every dataset-level fault class to one drive, in order."""
    if config.truncate_rate and len(hours) >= 2:
        rng = _rng(config, serial, "truncate")
        if rng.random() < config.truncate_rate:
            keep = int(rng.integers(1, len(hours)))
            log.record("truncate", serial, len(hours) - keep)
            hours, matrix = hours[:keep], matrix[:keep]

    if config.drop_rate and len(hours):
        rng = _rng(config, serial, "drop")
        keep_mask = rng.random(len(hours)) >= config.drop_rate
        dropped = int(len(hours) - keep_mask.sum())
        if dropped:
            log.record("drop", serial, dropped)
            hours, matrix = hours[keep_mask], matrix[keep_mask]

    if config.duplicate_rate and len(hours):
        rng = _rng(config, serial, "duplicate")
        dup_mask = rng.random(len(hours)) < config.duplicate_rate
        if dup_mask.any():
            log.record("duplicate", serial, int(dup_mask.sum()))
            repeats = np.where(dup_mask, 2, 1)
            hours = np.repeat(hours, repeats)
            matrix = np.repeat(matrix, repeats, axis=0)

    if config.disorder_rate and len(hours) >= 3:
        rng = _rng(config, serial, "disorder")
        if rng.random() < config.disorder_rate:
            width = int(rng.integers(2, min(6, len(hours)) + 1))
            start = int(rng.integers(0, len(hours) - width + 1))
            log.record("disorder", serial, width)
            window = slice(start, start + width)
            hours = hours.copy()
            matrix = matrix.copy()
            hours[window] = hours[window][::-1]
            matrix[window] = matrix[window][::-1]

    if config.blackout_rate and len(hours):
        rng = _rng(config, serial, "blackout")
        if rng.random() < config.blackout_rate:
            attribute = int(rng.integers(0, matrix.shape[1]))
            span = int(rng.integers(1, len(hours) + 1))
            start = int(rng.integers(0, len(hours) - span + 1))
            log.record("blackout", serial, span)
            matrix = matrix.copy()
            matrix[start:start + span, attribute] = np.nan

    if config.nan_rate and len(hours):
        rng = _rng(config, serial, "nan")
        row_mask = rng.random(len(hours)) < config.nan_rate
        if row_mask.any():
            matrix = matrix.copy()
            for row in np.flatnonzero(row_mask):
                n_attrs = int(rng.integers(1, 4))
                columns = rng.choice(matrix.shape[1], size=n_attrs,
                                     replace=False)
                matrix[row, columns] = np.nan
            log.record("nan", serial, int(row_mask.sum()))

    if config.outlier_rate and len(hours):
        rng = _rng(config, serial, "outlier")
        row_mask = rng.random(len(hours)) < config.outlier_rate
        if row_mask.any():
            matrix = matrix.copy()
            for row in np.flatnonzero(row_mask):
                column = int(rng.integers(0, matrix.shape[1]))
                sign = 1.0 if rng.random() < 0.5 else -1.0
                matrix[row, column] = sign * OUTLIER_SCALE \
                    * (1.0 + rng.random())
            log.record("outlier", serial, int(row_mask.sum()))

    return hours, matrix


def inject_dataset(dataset: DiskDataset, config: ChaosConfig, *,
                   observer: PipelineObserver | None = None,
                   ) -> tuple[list[RawProfile], FaultLog]:
    """Corrupt ``dataset`` according to ``config``.

    Returns the corrupted drives as lenient :class:`RawProfile` records
    (dataset order preserved) plus the :class:`FaultLog` of what was
    done.  The input dataset is never mutated.  Equal ``config`` values
    yield byte-identical output.
    """
    obs = resolve_observer(observer)
    log = FaultLog(seed=config.seed)
    raw: list[RawProfile] = []
    with obs.span("inject-faults", n_drives=len(dataset.profiles),
                  seed=config.seed):
        for profile in dataset.profiles:
            hours, matrix = _inject_profile(
                profile.serial, profile.hours.copy(), profile.matrix.copy(),
                config, log,
            )
            raw.append(RawProfile(
                serial=profile.serial,
                hours=np.ascontiguousarray(hours),
                matrix=np.ascontiguousarray(matrix),
                failed=profile.failed,
                attributes=profile.attributes,
            ))
    for fault, units in sorted(log.counts.items()):
        obs.count(f"faults_injected_{fault}", units)
    obs.count("faults_injected", log.total)
    obs.event("faults injected", seed=config.seed, total=log.total,
              drives_affected=len(log.by_drive))
    return raw, log
