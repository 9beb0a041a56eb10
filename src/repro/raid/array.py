"""RAID group failure semantics.

A RAID group of ``k`` drives tolerates a fixed number of simultaneous
member losses (one for RAID-5, two for RAID-6).  When a member fails,
the group reconstructs onto a spare for ``reconstruction_hours``; during
that window the group runs with reduced redundancy, and rebuilding reads
*every* sector of the surviving members — so a latent sector error on a
survivor defeats RAID-5 exactly as the paper (citing Bairavasundaram et
al.) warns.

:func:`evaluate_group` replays a group's timeline:

* drives whose failure carries enough warning lead time are migrated
  proactively (cloned while alive) and never enter the failure timeline;
* each remaining failure opens a reconstruction window; another member
  failure inside the window exceeds the redundancy and loses data;
* during a window that has consumed all redundancy (RAID-5: any window;
  RAID-6: a window already containing a second failure), a latent sector
  error on any survivor also loses data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ReproError


class RaidLevel(enum.Enum):
    """Supported redundancy schemes."""

    RAID5 = 1  # tolerates one member loss
    RAID6 = 2  # tolerates two member losses

    @property
    def parity_drives(self) -> int:
        return self.value


@dataclass(frozen=True, slots=True)
class DriveState:
    """Everything the RAID analysis needs to know about one drive.

    ``failure_hour`` is ``None`` for drives that survive the period.
    ``has_latent_errors`` marks drives carrying unreadable sectors
    (pending or uncorrectable) that a full-stripe rebuild would hit.
    ``warning_lead_hours`` is the advance notice a degradation monitor
    gave before the failure (``None`` when unwarned or not failing).
    """

    serial: str
    failure_hour: int | None = None
    has_latent_errors: bool = False
    warning_lead_hours: float | None = None

    @property
    def fails(self) -> bool:
        return self.failure_hour is not None


@dataclass(frozen=True, slots=True)
class GroupOutcome:
    """Result of replaying one RAID group's timeline."""

    data_loss: bool
    loss_cause: str | None          # "double_failure" | "latent_error"
    n_failures: int                 # unplanned member failures
    n_proactive_migrations: int     # failures converted to planned swaps


def evaluate_group(members: list[DriveState], level: RaidLevel, *,
                   reconstruction_hours: float = 12.0,
                   migration_hours: float = 6.0,
                   proactive: bool = False) -> GroupOutcome:
    """Replay one group's failure timeline.

    Parameters
    ----------
    members:
        The group's drives.
    level:
        Redundancy scheme.
    reconstruction_hours:
        Degraded-mode window after each failure.
    migration_hours:
        Time needed to clone a warned drive; warnings shorter than this
        cannot be acted on.
    proactive:
        Whether warned failures are converted to planned migrations.
    """
    if len(members) < level.parity_drives + 1:
        raise ReproError(
            f"a {level.name} group needs at least {level.parity_drives + 1} "
            f"drives"
        )
    if reconstruction_hours <= 0:
        raise ReproError("reconstruction_hours must be positive")

    migrations = 0
    failures: list[DriveState] = []
    for drive in members:
        if not drive.fails:
            continue
        if (proactive and drive.warning_lead_hours is not None
                and drive.warning_lead_hours >= migration_hours):
            migrations += 1
            continue
        failures.append(drive)
    failures.sort(key=lambda drive: drive.failure_hour or 0)

    # Walk the failure timeline tracking overlapping reconstructions.
    for index, failure in enumerate(failures):
        start = float(failure.failure_hour or 0)
        end = start + reconstruction_hours
        overlapping = [
            other for other in failures[index + 1:]
            if start <= float(other.failure_hour or 0) < end
        ]
        if len(overlapping) >= level.parity_drives:
            return GroupOutcome(
                data_loss=True, loss_cause="double_failure",
                n_failures=len(failures),
                n_proactive_migrations=migrations,
            )
        # Redundancy consumed during this window: the initial failure plus
        # any overlapping ones.  With none left, a latent sector error on
        # a survivor is unrecoverable during the rebuild.
        redundancy_left = level.parity_drives - 1 - len(overlapping)
        if redundancy_left < 0:
            redundancy_left = 0
        if redundancy_left == 0:
            failed_serials = {f.serial for f in failures[: index + 1]}
            failed_serials.update(o.serial for o in overlapping)
            survivors = [
                drive for drive in members
                if drive.serial not in failed_serials
            ]
            if any(drive.has_latent_errors for drive in survivors):
                return GroupOutcome(
                    data_loss=True, loss_cause="latent_error",
                    n_failures=len(failures),
                    n_proactive_migrations=migrations,
                )
    return GroupOutcome(
        data_loss=False, loss_cause=None,
        n_failures=len(failures),
        n_proactive_migrations=migrations,
    )
