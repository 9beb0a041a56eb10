"""Registry of the SMART attributes used for failure characterization.

The paper starts from the 23 attributes reported by the drives, discards
those that are constant across the fleet, and keeps the ten normalized
health values plus two raw counters of Table I.  This module encodes that
table: each attribute's symbol, standard SMART id, kind (read/write vs
environmental), and value form (vendor health value vs raw counter).

The registry is the single source of truth for attribute ordering; every
matrix in the library stores columns in :data:`CHARACTERIZATION_ATTRIBUTES`
order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import UnknownAttributeError


class AttributeKind(enum.Enum):
    """Whether an attribute reflects read/write activity or the environment."""

    READ_WRITE = "read/write"
    ENVIRONMENTAL = "environmental"


class ValueForm(enum.Enum):
    """Which representation of the SMART attribute is recorded.

    ``HEALTH`` is the vendor-normalized one-byte health value (higher is
    healthier for every attribute in Table I); ``RAW`` is the six-byte raw
    counter read directly from the drive's sensors.
    """

    HEALTH = "health value"
    RAW = "raw data"


@dataclass(frozen=True, slots=True)
class AttributeSpec:
    """Description of one selected SMART attribute (one row of Table I).

    Attributes
    ----------
    symbol:
        Short symbol used throughout the paper and this library
        (e.g. ``"RRER"`` for Raw Read Error Rate).
    smart_id:
        The standard SMART attribute identifier reported by drives.
    name:
        Human-readable attribute name.
    kind:
        Read/write related or environmental.
    form:
        Vendor health value or raw counter.
    raw_min, raw_max:
        Plausible range of the underlying raw counter; used by the
        simulator's vendor-normalization curves and by property tests.
    higher_raw_is_worse:
        Direction of the raw counter: ``True`` when a growing raw value
        indicates deteriorating health (error counts), ``False`` when the
        raw value is neutral or grows with normal operation (e.g. power-on
        hours).
    description:
        One-line summary of what the attribute measures.
    """

    symbol: str
    smart_id: int
    name: str
    kind: AttributeKind
    form: ValueForm
    raw_min: float
    raw_max: float
    higher_raw_is_worse: bool
    description: str

    @property
    def is_read_write(self) -> bool:
        return self.kind is AttributeKind.READ_WRITE

    @property
    def is_environmental(self) -> bool:
        return self.kind is AttributeKind.ENVIRONMENTAL


def _rw(symbol: str, smart_id: int, name: str, form: ValueForm,
        raw_max: float, worse: bool, description: str) -> AttributeSpec:
    return AttributeSpec(
        symbol=symbol,
        smart_id=smart_id,
        name=name,
        kind=AttributeKind.READ_WRITE,
        form=form,
        raw_min=0.0,
        raw_max=raw_max,
        higher_raw_is_worse=worse,
        description=description,
    )


#: Table I of the paper, in its published order.  The first ten attributes
#: are read/write related, the last two environmental.
ATTRIBUTE_REGISTRY: tuple[AttributeSpec, ...] = (
    _rw("RRER", 1, "Raw Read Error Rate", ValueForm.HEALTH, 1e9, True,
        "Rate of hardware read errors while reading data from the media."),
    _rw("RSC", 5, "Reallocated Sectors Count", ValueForm.HEALTH, 4096.0, True,
        "Count of sectors remapped to the spare pool after write errors."),
    _rw("SER", 7, "Seek Error Rate", ValueForm.HEALTH, 1e9, True,
        "Rate of positioning errors of the read/write heads."),
    _rw("RUE", 187, "Reported Uncorrectable Errors", ValueForm.HEALTH, 65535.0, True,
        "Errors that could not be recovered using hardware ECC."),
    _rw("HFW", 189, "High Fly Writes", ValueForm.HEALTH, 65535.0, True,
        "Writes performed with the head flying outside its normal range."),
    _rw("HER", 195, "Hardware ECC Recovered", ValueForm.HEALTH, 1e9, True,
        "Errors corrected by the drive's hardware ECC logic."),
    _rw("CPSC", 197, "Current Pending Sector Count", ValueForm.HEALTH, 4096.0, True,
        "Unstable sectors waiting to be remapped or recovered."),
    _rw("SUT", 3, "Spin Up Time", ValueForm.HEALTH, 30000.0, True,
        "Average time (ms) for the spindle to reach operating speed."),
    _rw("R-RSC", 5, "Reallocated Sectors Count (raw)", ValueForm.RAW, 4096.0, True,
        "Raw counter of reallocated sectors; more sensitive than the health value."),
    _rw("R-CPSC", 197, "Current Pending Sector Count (raw)", ValueForm.RAW, 4096.0, True,
        "Raw counter of pending sectors; more sensitive than the health value."),
    AttributeSpec(
        symbol="POH",
        smart_id=9,
        name="Power On Hours",
        kind=AttributeKind.ENVIRONMENTAL,
        form=ValueForm.HEALTH,
        raw_min=0.0,
        raw_max=70080.0,
        higher_raw_is_worse=True,
        description="Total time the drive has been powered on (health value "
                    "decreases by one every 876 hours in the studied fleet).",
    ),
    AttributeSpec(
        symbol="TC",
        smart_id=194,
        name="Temperature Celsius",
        kind=AttributeKind.ENVIRONMENTAL,
        form=ValueForm.HEALTH,
        raw_min=15.0,
        raw_max=70.0,
        higher_raw_is_worse=True,
        description="Internal drive temperature in degrees Celsius.",
    ),
)

#: Symbols of all twelve characterization attributes, in Table I order.
CHARACTERIZATION_ATTRIBUTES: tuple[str, ...] = tuple(
    spec.symbol for spec in ATTRIBUTE_REGISTRY
)

#: Symbols of the ten read/write-related attributes used for categorization.
READ_WRITE_ATTRIBUTES: tuple[str, ...] = tuple(
    spec.symbol for spec in ATTRIBUTE_REGISTRY if spec.is_read_write
)

#: Symbols of the two environmental attributes.
ENVIRONMENTAL_ATTRIBUTES: tuple[str, ...] = tuple(
    spec.symbol for spec in ATTRIBUTE_REGISTRY if spec.is_environmental
)

_INDEX_BY_SYMBOL: dict[str, int] = {
    spec.symbol: index for index, spec in enumerate(ATTRIBUTE_REGISTRY)
}


def attribute_index(symbol: str) -> int:
    """Return the column index of ``symbol`` in Table I order."""
    try:
        return _INDEX_BY_SYMBOL[symbol]
    except KeyError:
        raise UnknownAttributeError(symbol) from None
