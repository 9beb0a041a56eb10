"""Ground-truth validation of categorization results.

The studied data center had no failure-type labels — that is why the
paper clusters.  The simulator, however, knows every drive's true mode,
so simulation studies can score the pipeline exactly.  This module is
the public API for that: a per-type confusion matrix between a
:class:`CategorizationResult` and a :class:`FleetResult`'s ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.categorize import CategorizationResult
from repro.core.taxonomy import FailureType
from repro.errors import ReproError
from repro.sim.failure_modes import FailureMode
from repro.sim.fleet import FleetResult

#: Correspondence between taxonomy types and simulator modes.
MODE_BY_TYPE: dict[FailureType, FailureMode] = {
    FailureType.LOGICAL: FailureMode.LOGICAL,
    FailureType.BAD_SECTOR: FailureMode.BAD_SECTOR,
    FailureType.HEAD: FailureMode.HEAD,
}

TYPE_BY_MODE: dict[FailureMode, FailureType] = {
    mode: failure_type for failure_type, mode in MODE_BY_TYPE.items()
}


@dataclass(frozen=True, slots=True)
class ValidationReport:
    """Agreement between a categorization and the simulator ground truth.

    ``confusion[true_type][assigned_type]`` counts drives of the true
    type that the pipeline placed in the assigned type's group.
    """

    n_drives: int
    n_correct: int
    confusion: dict[FailureType, dict[FailureType, int]]

    @property
    def accuracy(self) -> float:
        return self.n_correct / self.n_drives if self.n_drives else 0.0

    def recall(self, failure_type: FailureType) -> float:
        """Fraction of the true type's drives assigned to its group."""
        row = self.confusion[failure_type]
        total = sum(row.values())
        return row[failure_type] / total if total else 0.0

    def precision(self, failure_type: FailureType) -> float:
        """Fraction of the assigned group that truly is the type."""
        assigned = sum(row[failure_type] for row in self.confusion.values())
        return (self.confusion[failure_type][failure_type] / assigned
                if assigned else 0.0)


def validate_categorization(fleet: FleetResult,
                            categorization: CategorizationResult,
                            ) -> ValidationReport:
    """Score ``categorization`` against the fleet's true failure modes."""
    confusion = {
        true_type: {assigned: 0 for assigned in FailureType}
        for true_type in FailureType
    }
    n_drives = 0
    n_correct = 0
    for assigned_type in FailureType:
        for serial in categorization.serials_of_type(assigned_type):
            true_mode = fleet.true_modes.get(serial)
            if true_mode is None or not true_mode.is_failure:
                raise ReproError(
                    f"categorized drive {serial!r} is not a failed drive "
                    f"of this fleet"
                )
            true_type = TYPE_BY_MODE[true_mode]
            confusion[true_type][assigned_type] += 1
            n_drives += 1
            if true_type is assigned_type:
                n_correct += 1
    return ValidationReport(
        n_drives=n_drives,
        n_correct=n_correct,
        confusion=confusion,
    )
