"""Per-drive health profiles: the matrix form of SMART time series.

A :class:`HealthProfile` stores one drive's hourly samples as a dense
``(n_samples, n_attributes)`` matrix with an accompanying ``hours`` vector.
Failed drives carry up to 20 days (480 samples) ending at the failure
record; good drives carry up to 7 days (168 samples), matching the
collection policy of the studied data center.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DatasetError
from repro.smart.attributes import CHARACTERIZATION_ATTRIBUTES, attribute_index

#: Collection policy of the studied data center, in hours.
FAILED_OBSERVATION_HOURS = 480   # 20 days before the failure event
GOOD_OBSERVATION_HOURS = 168     # up to 7 days per good drive


@dataclass(slots=True)
class HealthProfile:
    """Hourly SMART time series of one drive.

    Attributes
    ----------
    serial:
        Drive serial number (unique within a dataset).
    hours:
        Strictly increasing sample timestamps, hours since collection start.
    matrix:
        ``(len(hours), 12)`` float matrix of attribute values in Table I
        order.
    failed:
        Whether the drive was replaced due to a failure.  For failed
        drives, the last row is the *failure record* — the final health
        state before replacement.
    attributes:
        Column symbols; defaults to the Table I ordering.
    """

    serial: str
    hours: np.ndarray
    matrix: np.ndarray
    failed: bool
    attributes: tuple[str, ...] = field(default=CHARACTERIZATION_ATTRIBUTES)

    def __post_init__(self) -> None:
        self.hours = np.asarray(self.hours, dtype=np.int64)
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.hours.ndim != 1:
            raise DatasetError(f"profile {self.serial!r}: hours must be 1-D")
        if self.matrix.ndim != 2:
            raise DatasetError(f"profile {self.serial!r}: matrix must be 2-D")
        if self.matrix.shape[0] != self.hours.shape[0]:
            raise DatasetError(
                f"profile {self.serial!r}: {self.matrix.shape[0]} rows for "
                f"{self.hours.shape[0]} timestamps"
            )
        if self.matrix.shape[1] != len(self.attributes):
            raise DatasetError(
                f"profile {self.serial!r}: {self.matrix.shape[1]} columns for "
                f"{len(self.attributes)} attributes"
            )
        if self.hours.shape[0] == 0:
            raise DatasetError(f"profile {self.serial!r} has no samples")
        if np.any(np.diff(self.hours) <= 0):
            raise DatasetError(
                f"profile {self.serial!r}: hours must be strictly increasing"
            )

    def __len__(self) -> int:
        return int(self.hours.shape[0])

    @property
    def n_samples(self) -> int:
        return len(self)

    @property
    def duration_hours(self) -> int:
        """Span of the profile from first to last sample, inclusive."""
        return int(self.hours[-1] - self.hours[0]) + 1

    @property
    def failure_hour(self) -> int:
        """Timestamp of the failure record (failed drives only)."""
        if not self.failed:
            raise DatasetError(
                f"profile {self.serial!r} is a good drive; no failure hour"
            )
        return int(self.hours[-1])

    def failure_record(self) -> np.ndarray:
        """Return the last recorded health state of a failed drive."""
        if not self.failed:
            raise DatasetError(
                f"profile {self.serial!r} is a good drive; no failure record"
            )
        return self.matrix[-1].copy()

    def column(self, symbol: str) -> np.ndarray:
        """Return the time series of attribute ``symbol``."""
        if self.attributes == CHARACTERIZATION_ATTRIBUTES:
            position = attribute_index(symbol)
        else:
            try:
                position = self.attributes.index(symbol)
            except ValueError:
                raise DatasetError(
                    f"profile {self.serial!r} has no attribute {symbol!r}"
                ) from None
        return self.matrix[:, position].copy()

    def last(self, n_samples: int) -> "HealthProfile":
        """Return a profile truncated to the final ``n_samples`` samples."""
        if n_samples <= 0:
            raise DatasetError("n_samples must be positive")
        return HealthProfile(
            serial=self.serial,
            hours=self.hours[-n_samples:].copy(),
            matrix=self.matrix[-n_samples:].copy(),
            failed=self.failed,
            attributes=self.attributes,
        )

    def hours_before_failure(self) -> np.ndarray:
        """Return, per sample, the number of hours before the failure event."""
        if not self.failed:
            raise DatasetError(
                f"profile {self.serial!r} is a good drive; no failure event"
            )
        return (self.hours[-1] - self.hours).astype(np.int64)

    def with_matrix(self, matrix: np.ndarray) -> "HealthProfile":
        """Return a copy of this profile with ``matrix`` substituted.

        Used by normalization passes that rescale values but keep the
        temporal structure.
        """
        return HealthProfile(
            serial=self.serial,
            hours=self.hours.copy(),
            matrix=matrix,
            failed=self.failed,
            attributes=self.attributes,
        )
