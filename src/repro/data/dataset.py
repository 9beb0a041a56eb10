"""The labeled SMART dataset the characterization pipeline consumes.

A :class:`DiskDataset` owns the health profiles of every drive, split by
outcome: drives replaced due to failures are *failed*, the rest *good*.
It provides the dataset-wide operation of the paper's Section III:
Eq. (1) min-max normalization with extrema taken over *all* records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DatasetError
from repro.smart.attributes import CHARACTERIZATION_ATTRIBUTES
from repro.smart.normalization import MinMaxNormalizer
from repro.smart.profile import HealthProfile


@dataclass(frozen=True, slots=True)
class DatasetSummary:
    """Headline statistics of a dataset (paper Section III numbers)."""

    n_drives: int
    n_failed: int
    n_good: int
    failed_samples: int
    good_samples: int
    mean_failed_profile_hours: float

    @property
    def failure_rate(self) -> float:
        return self.n_failed / self.n_drives if self.n_drives else 0.0


class DiskDataset:
    """Collection of per-drive health profiles with failure labels.

    Parameters
    ----------
    profiles:
        All drive profiles (good and failed, any order).  Serial numbers
        must be unique and every profile must share the same attribute
        columns.
    normalized:
        Whether the profile matrices already hold Eq. (1)-normalized
        values.  Raw datasets (from the simulator or a loader) start
        ``False``; :meth:`normalize` produces the normalized view.
    """

    def __init__(self, profiles: list[HealthProfile], *,
                 normalized: bool = False,
                 normalizer: MinMaxNormalizer | None = None) -> None:
        if not profiles:
            raise DatasetError("a dataset needs at least one profile")
        attributes = profiles[0].attributes
        serials: set[str] = set()
        for profile in profiles:
            if profile.attributes != attributes:
                raise DatasetError(
                    f"profile {profile.serial!r} has mismatched attributes"
                )
            if profile.serial in serials:
                raise DatasetError(f"duplicate serial {profile.serial!r}")
            serials.add(profile.serial)
        self._profiles = list(profiles)
        self._by_serial = {p.serial: p for p in self._profiles}
        self._attributes = attributes
        self._normalized = normalized
        self._normalizer = normalizer

    # -- basic access ---------------------------------------------------

    @property
    def attributes(self) -> tuple[str, ...]:
        return self._attributes

    @property
    def profiles(self) -> list[HealthProfile]:
        return list(self._profiles)

    @property
    def is_normalized(self) -> bool:
        return self._normalized

    @property
    def normalizer(self) -> MinMaxNormalizer | None:
        """The scaler used to produce this dataset, when normalized."""
        return self._normalizer

    def __len__(self) -> int:
        return len(self._profiles)

    def __contains__(self, serial: str) -> bool:
        return serial in self._by_serial

    def get(self, serial: str) -> HealthProfile:
        try:
            return self._by_serial[serial]
        except KeyError:
            raise DatasetError(f"no profile with serial {serial!r}") from None

    @property
    def failed_profiles(self) -> list[HealthProfile]:
        return [p for p in self._profiles if p.failed]

    @property
    def good_profiles(self) -> list[HealthProfile]:
        return [p for p in self._profiles if not p.failed]

    def summary(self) -> DatasetSummary:
        failed = self.failed_profiles
        good = self.good_profiles
        failed_samples = sum(len(p) for p in failed)
        mean_hours = (
            float(np.mean([p.duration_hours for p in failed])) if failed else 0.0
        )
        return DatasetSummary(
            n_drives=len(self._profiles),
            n_failed=len(failed),
            n_good=len(good),
            failed_samples=failed_samples,
            good_samples=sum(len(p) for p in good),
            mean_failed_profile_hours=mean_hours,
        )

    # -- matrix views -----------------------------------------------------

    def stacked_records(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(matrix, failed_mask)`` of every record in the dataset.

        Rows are grouped by drive in insertion order; ``failed_mask`` marks
        rows belonging to failed drives.
        """
        matrices = [p.matrix for p in self._profiles]
        masks = [np.full(len(p), p.failed, dtype=bool) for p in self._profiles]
        return np.vstack(matrices), np.concatenate(masks)

    def failure_records(self) -> tuple[np.ndarray, list[str]]:
        """Return the last recorded health state of each failed drive.

        The row order matches the returned serial list.
        """
        failed = self.failed_profiles
        if not failed:
            raise DatasetError("dataset has no failed drives")
        matrix = np.vstack([p.failure_record() for p in failed])
        return matrix, [p.serial for p in failed]

    def column_index(self, symbol: str) -> int:
        try:
            return self._attributes.index(symbol)
        except ValueError:
            raise DatasetError(f"dataset has no attribute {symbol!r}") from None

    # -- dataset-wide transformations ------------------------------------

    def sample(self, *, n_good: int | None = None,
               n_failed: int | None = None,
               rng: np.random.Generator | None = None) -> "DiskDataset":
        """Return a random sub-fleet with the requested population sizes.

        ``None`` keeps the full population on that side.  Useful for
        scaling experiments down without re-simulating.
        """
        rng = rng if rng is not None else np.random.default_rng(0)
        chosen: list[HealthProfile] = []
        for pool, count in ((self.failed_profiles, n_failed),
                            (self.good_profiles, n_good)):
            if count is None:
                chosen.extend(pool)
                continue
            if not 0 <= count <= len(pool):
                raise DatasetError(
                    f"cannot sample {count} from {len(pool)} drives"
                )
            indices = rng.choice(len(pool), size=count, replace=False)
            chosen.extend(pool[i] for i in sorted(indices))
        if not chosen:
            raise DatasetError("sampled dataset would be empty")
        return DiskDataset(chosen, normalized=self._normalized,
                           normalizer=self._normalizer)

    def fit_normalizer(self) -> MinMaxNormalizer:
        """Fit the Eq. (1) scaler on every record of the dataset."""
        matrix, _ = self.stacked_records()
        return MinMaxNormalizer().fit(matrix)

    def normalize(self, normalizer: MinMaxNormalizer | None = None) -> "DiskDataset":
        """Return the dataset rescaled to ``[-1, 1]`` per attribute.

        A pre-fitted ``normalizer`` may be supplied (e.g. to scale a test
        split with training extrema); by default the scaler is fitted on
        this dataset, exactly as the paper fits Eq. (1) on the full
        collection.
        """
        if self._normalized:
            raise DatasetError("dataset is already normalized")
        scaler = normalizer if normalizer is not None else self.fit_normalizer()
        profiles = [
            p.with_matrix(scaler.transform(p.matrix)) for p in self._profiles
        ]
        return DiskDataset(profiles, normalized=True, normalizer=scaler)


# Re-exported default attribute ordering, used by loaders when writing
# column headers.
DEFAULT_ATTRIBUTES: tuple[str, ...] = CHARACTERIZATION_ATTRIBUTES
