"""Chaos configuration: which faults to inject, how often, and the seed.

A :class:`ChaosConfig` quantifies one corruption regime — a rate per
fault class plus the seed that makes the whole regime deterministic.
Two injections with equal configs produce byte-identical corrupted
datasets, so every chaos experiment is exactly re-runnable.

The CLI accepts the compact ``key=value`` spec form via
:func:`parse_chaos_spec`::

   --inject-faults 'drop=0.05,nan=0.02,truncate=0.1,seed=7'

Rates are probabilities: per *sample* for ``drop``/``duplicate``/
``nan``/``outlier``, and per *drive* for ``blackout``/``disorder``/
``truncate``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import FaultInjectionError

#: Spec keys accepted by :func:`parse_chaos_spec`, mapped to config fields.
SPEC_KEYS = {
    "drop": "drop_rate",
    "duplicate": "duplicate_rate",
    "disorder": "disorder_rate",
    "truncate": "truncate_rate",
    "blackout": "blackout_rate",
    "nan": "nan_rate",
    "outlier": "outlier_rate",
    "seed": "seed",
}


@dataclass(frozen=True, slots=True)
class ChaosConfig:
    """Rates per fault class plus the seed driving every injector.

    Parameters
    ----------
    seed:
        Root of the per-drive/per-fault random streams; equal seeds
        reproduce the corruption bit for bit.
    drop_rate:
        Per-sample probability of the sample never being recorded.
    duplicate_rate:
        Per-sample probability of the sample appearing twice.
    disorder_rate:
        Per-drive probability of a batch of adjacent samples arriving
        out of order.
    truncate_rate:
        Per-drive probability of the profile being cut short (a drive
        replaced before its telemetry finished uploading).
    blackout_rate:
        Per-drive probability of one attribute going dark (NaN) for a
        contiguous span — a sensor or collector outage.
    nan_rate:
        Per-sample probability of a partial NaN burst across a few
        attributes.
    outlier_rate:
        Per-sample probability of a wild out-of-range value (sensor
        glitch / decoding error).
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    disorder_rate: float = 0.0
    truncate_rate: float = 0.0
    blackout_rate: float = 0.0
    nan_rate: float = 0.0
    outlier_rate: float = 0.0

    def __post_init__(self) -> None:
        for spec in fields(self):
            if not spec.name.endswith("_rate"):
                continue
            value = getattr(self, spec.name)
            if not 0.0 <= value <= 1.0:
                raise FaultInjectionError(
                    f"{spec.name} must be in [0, 1], got {value!r}"
                )

    @property
    def active(self) -> bool:
        """Whether any fault class has a nonzero rate."""
        return any(
            getattr(self, spec.name) > 0.0
            for spec in fields(self) if spec.name.endswith("_rate")
        )

    def rates(self) -> dict[str, float]:
        """Mapping of fault-class spec key to its configured rate."""
        return {
            key: getattr(self, field_name)
            for key, field_name in SPEC_KEYS.items()
            if field_name != "seed"
        }


def parse_chaos_spec(spec: str) -> ChaosConfig:
    """Parse ``"drop=0.1,nan=0.05,seed=7"`` into a :class:`ChaosConfig`.

    Keys are the short fault-class names of :data:`SPEC_KEYS`; unknown
    keys, repeated keys and unparsable values raise
    :class:`~repro.errors.FaultInjectionError` with the offending token.
    """
    values: dict[str, float | int] = {}
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        key, sep, raw = token.partition("=")
        key = key.strip()
        if not sep:
            raise FaultInjectionError(
                f"chaos spec token {token!r} is not of the form key=value"
            )
        if key not in SPEC_KEYS:
            raise FaultInjectionError(
                f"unknown fault class {key!r}; expected one of "
                f"{', '.join(SPEC_KEYS)}"
            )
        field_name = SPEC_KEYS[key]
        if field_name in values:
            raise FaultInjectionError(f"duplicate chaos spec key {key!r}")
        try:
            values[field_name] = (int(raw) if key == "seed"
                                  else float(raw))
        except ValueError:
            raise FaultInjectionError(
                f"cannot parse {raw.strip()!r} as a value for {key!r}"
            ) from None
    if not any(name.endswith("_rate") for name in values):
        raise FaultInjectionError(
            f"chaos spec {spec!r} names no fault class; expected e.g. "
            "'drop=0.05,seed=7'"
        )
    return ChaosConfig(**values)  # type: ignore[arg-type]
