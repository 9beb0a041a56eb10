"""Degradation-window extraction and signature derivation (Section IV-C).

The paper's software tool "processes health records of each failed drive,
starting from the failure record backward to extract the degradation
record set where distance to the failure record changes monotonically",
sets ``d`` to the size of that set, then "tests a set of polynomial
regression models up to order n ... compares their RMSEs and selects the
one with the smallest RMSE as the failure degradation signature".

:func:`extract_degradation_window` implements the backward extraction
robustly against measurement noise:

1. the dissimilarity series (Euclidean by default, Mahalanobis optional)
   is walked backward from the failure record under a ratchet that allows
   dips up to ``dip_tolerance`` below the running maximum — single-sample
   flickers are removed with a width-3 median filter first;
2. the accepted stretch is median-filtered (width 5) and the window
   boundary is the earliest sample (closest to failure) whose filtered
   dissimilarity reaches the stretch's plateau, i.e. comes within
   ``flat_tolerance`` of its maximum.  This trims the noisy plateau that
   precedes the monotone run, which is what the paper's "last (rightmost)
   decreasing curve" selection does by eye in Figure 7(a).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import medfilt

from repro.core.taxonomy import FailureType
from repro.errors import SignatureError
from repro.ml.distance import MahalanobisDistance, euclidean_to_reference
from repro.ml.polyfit import PolynomialFit, fit_polynomial_family
from repro.obs.observer import PipelineObserver, resolve_observer
from repro.smart.profile import HealthProfile


@dataclass(frozen=True, slots=True)
class WindowParams:
    """Tunables of the degradation-window extraction."""

    dip_tolerance: float = 0.15
    flat_tolerance_floor: float = 0.06
    flat_tolerance_fraction: float = 0.05
    min_window: int = 1

    def __post_init__(self) -> None:
        if self.dip_tolerance <= 0:
            raise SignatureError("dip_tolerance must be positive")
        if self.flat_tolerance_floor < 0 or self.flat_tolerance_fraction < 0:
            raise SignatureError("flat tolerances must be non-negative")
        if self.min_window < 1:
            raise SignatureError("min_window must be at least 1")


@dataclass(frozen=True, slots=True)
class DegradationWindow:
    """The extracted final monotone stretch of one drive's dissimilarity.

    ``size`` is the paper's ``d_i`` — the number of hours between the
    window's first record and the failure event.  ``distances`` holds the
    raw dissimilarities of the window records, oldest first (the last
    entry is the failure record's zero).

    For gapless hourly telemetry the records are one per hour and
    ``size + 1 == len(distances)``.  Telemetry with gaps (lost samples,
    or daily sampling) supplies ``hours_before_failure`` — the lag of
    each window record — and ``size`` is the first record's lag.
    """

    size: int
    distances: np.ndarray
    hours_before_failure: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.hours_before_failure is None:
            if self.distances.shape[0] != self.size + 1:
                raise SignatureError(
                    "window distances must hold size+1 records"
                )
            return
        lags = np.asarray(self.hours_before_failure, dtype=np.float64)
        if lags.shape != self.distances.shape:
            raise SignatureError("window lags must align with distances")
        if lags[-1] != 0.0:
            raise SignatureError("the final window record must be at lag 0")
        if np.any(np.diff(lags) >= 0):
            raise SignatureError("window lags must strictly decrease")
        if int(lags[0]) != self.size:
            raise SignatureError("window size must equal the first lag")

    @property
    def n_records(self) -> int:
        """Number of records inside the window (including the failure)."""
        return int(self.distances.shape[0])

    def degradation_values(self) -> tuple[np.ndarray, np.ndarray]:
        """Normalize to the paper's ``[-1, 0]`` degradation scale.

        Returns ``(t, s)`` where ``t`` is hours before failure (0 at the
        failure event) and ``s = distance / max_distance - 1`` — the
        normalization of Figure 8 with -1 at the failure event and 0 at
        the window's largest dissimilarity.
        """
        maximum = float(self.distances.max())
        if maximum <= 0.0:
            raise SignatureError(
                "degenerate window: all records equal the failure record"
            )
        if self.hours_before_failure is not None:
            t = np.asarray(self.hours_before_failure, dtype=np.float64)
        else:
            t = np.arange(self.size, -1, -1, dtype=np.float64)
        s = self.distances / maximum - 1.0
        return t, s


@dataclass(frozen=True, slots=True)
class DegradationSignature:
    """Full signature analysis of one failed drive."""

    serial: str
    window: DegradationWindow
    polynomial_fits: tuple[PolynomialFit, ...]
    best_fit: PolynomialFit
    canonical_rmse: dict[int, float]
    best_canonical_order: int

    @property
    def window_size(self) -> int:
        return self.window.size


def distance_to_failure(profile: HealthProfile, *,
                        metric: str = "euclidean",
                        mahalanobis: MahalanobisDistance | None = None,
                        ) -> np.ndarray:
    """Dissimilarity of every health record to the failure record.

    The series of the paper's Figure 7.  ``metric`` selects Euclidean
    (the paper's choice) or Mahalanobis (its rejected alternative); the
    Mahalanobis variant requires a pre-fitted :class:`MahalanobisDistance`
    so the covariance reflects the population, not a single drive.
    """
    failure_record = profile.failure_record()
    if metric == "euclidean":
        return euclidean_to_reference(profile.matrix, failure_record)
    if metric == "mahalanobis":
        if mahalanobis is None or not mahalanobis.is_fitted:
            raise SignatureError(
                "mahalanobis metric requires a fitted MahalanobisDistance"
            )
        return mahalanobis.to_reference(profile.matrix, failure_record)
    raise SignatureError(f"unknown distance metric {metric!r}")


def extract_degradation_window(distances: np.ndarray,
                               params: WindowParams | None = None, *,
                               hours: np.ndarray | None = None,
                               ) -> DegradationWindow:
    """Extract the final monotone stretch of a dissimilarity series.

    ``hours`` (optional) supplies the records' timestamps, letting the
    window size be measured in hours even when the sampling has gaps;
    without it, records are assumed one per hour.
    """
    params = params if params is not None else WindowParams()
    distances = np.asarray(distances, dtype=np.float64).ravel()
    if distances.shape[0] < 2:
        raise SignatureError("need at least two records to extract a window")
    if distances[-1] != 0.0 and not np.isclose(distances[-1], 0.0):
        raise SignatureError(
            "the last record must be the failure record (distance zero)"
        )
    if hours is not None:
        hours = np.asarray(hours, dtype=np.float64).ravel()
        if hours.shape != distances.shape:
            raise SignatureError("hours must align with the distances")
        if np.any(np.diff(hours) <= 0):
            raise SignatureError("hours must be strictly increasing")

    reversed_series = distances[::-1]
    accepted = _ratchet_scan(reversed_series, params.dip_tolerance)
    window_records = _trim_to_plateau(
        reversed_series[: accepted + 1], params
    )
    window_records = max(window_records, params.min_window)
    window_records = min(window_records, distances.shape[0] - 1)
    window_distances = distances[-(window_records + 1):].copy()
    if hours is None:
        return DegradationWindow(
            size=window_records,
            distances=window_distances,
        )
    lags = hours[-1] - hours[-(window_records + 1):]
    return DegradationWindow(
        size=int(lags[0]),
        distances=window_distances,
        hours_before_failure=lags,
    )


def derive_signature(profile: HealthProfile, *,
                     params: WindowParams | None = None,
                     max_order: int = 3,
                     metric: str = "euclidean",
                     mahalanobis: MahalanobisDistance | None = None,
                     observer: PipelineObserver | None = None,
                     ) -> DegradationSignature:
    """Run the paper's signature tool on one failed drive.

    Extracts the degradation window, fits free polynomials of order
    1..``max_order`` (Figure 8), evaluates the canonical constrained
    forms and reports the best of each family by RMSE.  ``observer``
    (optional) receives ``window_length`` / ``signature_fit_rmse``
    histogram observations and a ``signatures_derived`` count.
    """
    obs = resolve_observer(observer)
    distances = distance_to_failure(profile, metric=metric,
                                    mahalanobis=mahalanobis)
    window = extract_degradation_window(distances, params,
                                        hours=profile.hours)
    t, s = window.degradation_values()
    orders = [o for o in range(1, max_order + 1) if t.shape[0] > o]
    if not orders:
        raise SignatureError(
            f"window of drive {profile.serial!r} too small to fit any model"
        )
    fits = tuple(fit_polynomial_family(t, s, max_order=orders[-1]))
    best_fit = min(fits, key=lambda fit: fit.rmse)

    # All canonical orders in one broadcasted pass: rows are the
    # (t/d)^p - 1 model curves, reduced to per-order RMSEs together.
    order_range = np.arange(1, max_order + 1)
    models = (t / float(window.size))[None, :] ** order_range[:, None] - 1.0
    rmse_per_order = np.sqrt(np.mean((s[None, :] - models) ** 2, axis=1))
    canonical_rmse: dict[int, float] = {
        int(order): float(value)
        for order, value in zip(order_range, rmse_per_order)
    }
    best_canonical = min(canonical_rmse, key=lambda k: canonical_rmse[k])
    obs.count("signatures_derived")
    obs.observe("window_length", float(window.size))
    obs.observe("signature_fit_rmse", best_fit.rmse)
    return DegradationSignature(
        serial=profile.serial,
        window=window,
        polynomial_fits=fits,
        best_fit=best_fit,
        canonical_rmse=canonical_rmse,
        best_canonical_order=best_canonical,
    )


# -- extraction internals ---------------------------------------------------


def _ratchet_scan(reversed_series: np.ndarray, dip_tolerance: float) -> int:
    """Walk backward in time accepting samples under the dip ratchet.

    Returns the last accepted index of the (reversed) series.  Width-3
    median filtering removes single-sample flickers so an isolated noisy
    record does not truncate a long monotone run.

    The scan is one NumPy pass: sample ``i`` violates the ratchet when
    its filtered value drops more than ``dip_tolerance`` below the
    running maximum of the samples before it (a prefix-maximum), and the
    accepted stretch ends just before the first violation.
    """
    filtered = medfilt(reversed_series, 3) if reversed_series.shape[0] >= 3 \
        else reversed_series
    prior_max = np.maximum.accumulate(filtered[:-1])
    violations = np.flatnonzero(filtered[1:] < prior_max - dip_tolerance)
    if violations.shape[0] == 0:
        return reversed_series.shape[0] - 1
    return int(violations[0])


def _trim_to_plateau(reversed_segment: np.ndarray,
                     params: WindowParams) -> int:
    """Trim the accepted stretch to the true window boundary.

    The boundary is the earliest reversed-index whose (median-filtered)
    dissimilarity comes within the flat tolerance of the stretch's
    maximum — i.e. where the monotone rise reaches the pre-degradation
    plateau.
    """
    if reversed_segment.shape[0] >= 5:
        filtered = medfilt(reversed_segment, 5)
    else:
        filtered = reversed_segment
    peak = float(filtered.max())
    flat_tolerance = max(params.flat_tolerance_floor,
                         params.flat_tolerance_fraction * peak)
    above = np.flatnonzero(filtered >= peak - flat_tolerance)
    if above.shape[0] == 0:
        return reversed_segment.shape[0] - 1
    return int(above[0])
