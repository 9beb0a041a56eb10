"""Failure-type derivation from group manifestations (Table II).

The paper derives the failure *type* of each cluster from its distinctive
attribute manifestations: the group with the most uncorrectable errors
(lowest RUE health) is *bad-sector failures*; the group whose reallocated
sector counts saturate (highest raw R-RSC) is *read/write-head failures*;
the group that looks close to good states is *logical failures*.  The
rules below encode exactly that reading, applied to group medians, so
arbitrary cluster ids map deterministically onto the paper's Groups 1-3.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - offline layer, types only
    from repro.core.records import FailureRecordSet


class FailureType(enum.Enum):
    """The paper's three disk-failure categories."""

    LOGICAL = "logical failures"
    BAD_SECTOR = "bad sector failures"
    HEAD = "read/write head failures"

    @property
    def paper_group_number(self) -> int:
        """The group index the paper assigns this type (Table II)."""
        return {
            FailureType.LOGICAL: 1,
            FailureType.BAD_SECTOR: 2,
            FailureType.HEAD: 3,
        }[self]


#: Table II, verbatim property summaries per failure type.
TYPE_PROPERTIES: dict[FailureType, str] = {
    FailureType.LOGICAL: (
        "Similar to good states: a small number of write errors and "
        "internal scan errors, medium read errors."
    ),
    FailureType.BAD_SECTOR: (
        "Highest number of uncorrectable errors, more media errors and "
        "varying write errors."
    ),
    FailureType.HEAD: (
        "Highest number of write errors, larger high fly writes, longer "
        "power-on hours, low media errors and internal scan errors."
    ),
}


@dataclass(frozen=True, slots=True)
class GroupProperties:
    """One categorized failure group."""

    cluster_id: int
    failure_type: FailureType
    n_records: int
    population_fraction: float
    median_rue: float
    median_rrsc: float
    properties: str

    @property
    def paper_group_number(self) -> int:
        return self.failure_type.paper_group_number


def classify_groups(records: FailureRecordSet,
                    labels: np.ndarray) -> dict[int, GroupProperties]:
    """Assign a :class:`FailureType` to each cluster.

    Rules, in priority order over group medians of the failure records:

    1. bad-sector failures — the group with the lowest RUE health value
       (most reported uncorrectable errors);
    2. read/write-head failures — among the rest, the group with the
       highest raw reallocated-sector count (R-RSC);
    3. logical failures — the remaining group(s), whose read/write
       attributes sit near good-drive values.

    Exactly three clusters are expected (the paper's elbow); other counts
    raise, because the Table II reading is specific to three groups.
    """
    labels = np.asarray(labels)
    if labels.shape[0] != records.n_records:
        raise ReproError("labels must align with the failure records")
    cluster_ids = sorted(int(c) for c in np.unique(labels))
    if len(cluster_ids) != 3:
        raise ReproError(
            f"taxonomy rules expect 3 failure groups, got {len(cluster_ids)}"
        )

    rue = records.attribute_column("RUE")
    rrsc = records.attribute_column("R-RSC")
    median_rue = {c: float(np.median(rue[labels == c])) for c in cluster_ids}
    median_rrsc = {c: float(np.median(rrsc[labels == c])) for c in cluster_ids}

    bad_sector = min(cluster_ids, key=lambda c: median_rue[c])
    remaining = [c for c in cluster_ids if c != bad_sector]
    head = max(remaining, key=lambda c: median_rrsc[c])
    logical = next(c for c in remaining if c != head)

    assignment = {
        logical: FailureType.LOGICAL,
        bad_sector: FailureType.BAD_SECTOR,
        head: FailureType.HEAD,
    }
    total = records.n_records
    result: dict[int, GroupProperties] = {}
    for cluster_id in cluster_ids:
        failure_type = assignment[cluster_id]
        count = int(np.sum(labels == cluster_id))
        result[cluster_id] = GroupProperties(
            cluster_id=cluster_id,
            failure_type=failure_type,
            n_records=count,
            population_fraction=count / total,
            median_rue=median_rue[cluster_id],
            median_rrsc=median_rrsc[cluster_id],
            properties=TYPE_PROPERTIES[failure_type],
        )
    return result
