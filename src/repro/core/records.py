"""Failure-record feature construction (Section IV-B).

For every failed drive the paper extracts its *failure record* — the last
recorded health state — and augments each of the ten read/write
attributes with two statistics, "standard deviation of the values in the
last 24 hours and change rate of the values", yielding "a set of 433
failure records with 30 features each".  :func:`build_failure_records`
reproduces that construction on any dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import DiskDataset
from repro.errors import DatasetError
from repro.smart.attributes import READ_WRITE_ATTRIBUTES
from repro.stats.features import FEATURE_WINDOW_HOURS, change_rate, rolling_std

#: Suffixes of the two derived statistics per attribute.
_STD_SUFFIX = "_std24"
_RATE_SUFFIX = "_rate"


@dataclass(frozen=True, slots=True)
class FailureRecordSet:
    """The clustering input: one 30-feature row per failed drive.

    Attributes
    ----------
    features:
        ``(n_failed, 3 * n_rw_attributes)`` matrix.
    serials:
        Drive serials aligned with the rows.
    feature_names:
        Column names: the attribute symbol, then ``<symbol>_std24`` and
        ``<symbol>_rate`` for each read/write attribute.
    attribute_values:
        The plain failure records (last health state, all dataset
        attributes) aligned with ``serials`` — used by the taxonomy rules
        and the Table II summaries.
    attribute_names:
        Column symbols of ``attribute_values``.
    """

    features: np.ndarray
    serials: tuple[str, ...]
    feature_names: tuple[str, ...]
    attribute_values: np.ndarray
    attribute_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.features.shape[0] != len(self.serials):
            raise DatasetError("features and serials misaligned")
        if self.features.shape[1] != len(self.feature_names):
            raise DatasetError("features and feature names misaligned")
        if self.attribute_values.shape[0] != len(self.serials):
            raise DatasetError("attribute values and serials misaligned")

    @property
    def n_records(self) -> int:
        return self.features.shape[0]

    def attribute_column(self, symbol: str) -> np.ndarray:
        try:
            index = self.attribute_names.index(symbol)
        except ValueError:
            raise DatasetError(f"no attribute named {symbol!r}") from None
        return self.attribute_values[:, index].copy()


def build_failure_records(dataset: DiskDataset, *,
                          window_hours: int = FEATURE_WINDOW_HOURS,
                          rw_attributes: tuple[str, ...] = READ_WRITE_ATTRIBUTES,
                          ) -> FailureRecordSet:
    """Extract the 30-feature failure records from a (normalized) dataset.

    The dataset should already be Eq. (1)-normalized so that features of
    different attributes are commensurate in the clustering metric.  Raw
    datasets are accepted without complaint (useful for ablations); the
    caller owns that choice.
    """
    failed = dataset.failed_profiles
    if not failed:
        raise DatasetError("dataset has no failed drives")
    for symbol in rw_attributes:
        dataset.column_index(symbol)  # validate early

    feature_names: list[str] = []
    for symbol in rw_attributes:
        feature_names.extend(
            (symbol, f"{symbol}{_STD_SUFFIX}", f"{symbol}{_RATE_SUFFIX}")
        )

    rows = []
    attribute_rows = []
    serials = []
    for profile in failed:
        row = []
        for symbol in rw_attributes:
            series = profile.column(symbol)
            row.append(series[-1])
            row.append(rolling_std(series, window_hours))
            row.append(change_rate(series, window_hours))
        rows.append(row)
        attribute_rows.append(profile.failure_record())
        serials.append(profile.serial)

    return FailureRecordSet(
        features=np.asarray(rows, dtype=np.float64),
        serials=tuple(serials),
        feature_names=tuple(feature_names),
        attribute_values=np.vstack(attribute_rows),
        attribute_names=dataset.attributes,
    )


#: Array names used by the cache codec below (and expected back).
_RECORD_ARRAY_KEYS = ("record_features", "record_serials",
                      "record_feature_names", "record_attribute_values",
                      "record_attribute_names")


def failure_records_to_arrays(records: FailureRecordSet
                              ) -> dict[str, np.ndarray]:
    """Flatten a record set into named plain arrays.

    The codec the pipeline uses to memoize failure records through the
    :class:`repro.data.cache.DatasetCache` ``extras`` channel (the cache
    lives in the data layer and cannot know this core-layer type).
    """
    return {
        "record_features": records.features,
        "record_serials": np.asarray(records.serials),
        "record_feature_names": np.asarray(records.feature_names),
        "record_attribute_values": records.attribute_values,
        "record_attribute_names": np.asarray(records.attribute_names),
    }


def failure_records_from_arrays(arrays: dict[str, np.ndarray]
                                ) -> FailureRecordSet:
    """Rebuild a record set from :func:`failure_records_to_arrays` output."""
    missing = [key for key in _RECORD_ARRAY_KEYS if key not in arrays]
    if missing:
        raise DatasetError(f"record arrays incomplete, missing {missing}")
    return FailureRecordSet(
        features=np.asarray(arrays["record_features"], dtype=np.float64),
        serials=tuple(str(s) for s in arrays["record_serials"]),
        feature_names=tuple(str(s) for s in arrays["record_feature_names"]),
        attribute_values=np.asarray(arrays["record_attribute_values"],
                                    dtype=np.float64),
        attribute_names=tuple(
            str(s) for s in arrays["record_attribute_names"]
        ),
    )
