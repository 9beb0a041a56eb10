"""Attribute influence on failure degradation (Section IV-D).

Two analyses:

* :func:`rw_attribute_correlations` — Pearson correlation of each
  non-constant read/write attribute with the degradation value inside a
  drive's degradation window (Figure 9);
* :func:`environmental_correlations` — correlation of the environmental
  attributes (POH, TC) with designated read/write attributes over three
  horizons: the degradation window, a 24-hour window and the full
  profile (Figure 10).  POH is smoothed first, exactly as the paper does,
  because the raw health value is a step function.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.signatures import DegradationWindow
from repro.errors import ReproError
from repro.smart.attributes import READ_WRITE_ATTRIBUTES
from repro.stats.correlation import pearson
from repro.stats.features import smooth_poh
from repro.smart.profile import HealthProfile


@dataclass(frozen=True, slots=True)
class EnvironmentalCorrelation:
    """One cell of the Figure 10 tables."""

    environmental: str
    target: str
    horizon: str
    correlation: float


def rw_attribute_correlations(profile: HealthProfile,
                              window: DegradationWindow,
                              attributes: tuple[str, ...] = READ_WRITE_ATTRIBUTES,
                              ) -> dict[str, float]:
    """Correlation of read/write attributes with the degradation value.

    The degradation value over the window is the normalized dissimilarity
    ``s``; attributes whose values are constant inside the window get a
    correlation of 0 (they contribute nothing to the degradation).
    """
    _, s = window.degradation_values()
    n_records = window.n_records
    correlations: dict[str, float] = {}
    for symbol in attributes:
        series = profile.column(symbol)[-n_records:]
        correlations[symbol] = pearson(series, s)
    return correlations


def environmental_correlations(profile: HealthProfile,
                               window: DegradationWindow,
                               targets: tuple[str, ...],
                               environmental: tuple[str, ...] = ("POH", "TC"),
                               day_window_hours: int = 24,
                               ) -> list[EnvironmentalCorrelation]:
    """Correlate environmental attributes with read/write targets.

    Horizons follow Figure 10: the degradation window, the trailing
    ``day_window_hours`` and the entire recorded profile ("20-day
    window" for fully observed failed drives).
    """
    if not targets:
        raise ReproError("need at least one target attribute")
    horizons = {
        "degradation_window": window.n_records,
        "24_hour_window": min(day_window_hours, len(profile)),
        "full_profile": len(profile),
    }
    results: list[EnvironmentalCorrelation] = []
    for horizon_name, n_records in horizons.items():
        for env_symbol in environmental:
            env_series = profile.column(env_symbol)[-n_records:]
            if env_symbol == "POH":
                hours = profile.hours[-n_records:]
                env_series = smooth_poh(env_series, hours)
            for target in targets:
                target_series = profile.column(target)[-n_records:]
                results.append(
                    EnvironmentalCorrelation(
                        environmental=env_symbol,
                        target=target,
                        horizon=horizon_name,
                        correlation=(
                            pearson(env_series, target_series)
                            if n_records >= 2 else 0.0
                        ),
                    )
                )
    return results


def top_correlated_attributes(correlations: dict[str, float],
                              count: int = 2) -> list[str]:
    """Attributes most correlated (by magnitude) with the degradation."""
    if count < 1:
        raise ReproError("count must be positive")
    ranked = sorted(correlations, key=lambda k: -abs(correlations[k]))
    return ranked[:count]
