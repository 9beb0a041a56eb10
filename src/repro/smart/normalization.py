"""Dataset normalization: the paper's Eq. (1).

For a fair comparison between attributes the paper rescales every
attribute to ``[-1, 1]`` with ``x_norm = 2 (x - x_min) / (x_max - x_min) - 1``
where the extrema are taken over the whole dataset.
:class:`MinMaxNormalizer` implements exactly this, including the
fit/transform split needed so that failed and good drives are scaled
with the same extrema.  (The firmware's own one-byte vendor health
values are an input here, not something this module computes.)
"""

from __future__ import annotations

import numpy as np

from repro.errors import NormalizationError


class MinMaxNormalizer:
    """Per-column min-max scaler to ``[-1, 1]`` (Eq. 1 of the paper).

    Columns that are constant in the fitting data carry no information for
    characterization; this scaler maps them to ``0.0``.
    """

    def __init__(self) -> None:
        self._minima: np.ndarray | None = None
        self._maxima: np.ndarray | None = None

    @classmethod
    def from_extrema(cls, minima: np.ndarray,
                     maxima: np.ndarray) -> "MinMaxNormalizer":
        """Reconstruct a fitted scaler from stored extrema.

        The round-trip counterpart of :attr:`minima` / :attr:`maxima`,
        used by the on-disk dataset cache to restore the exact scaler a
        cached normalized dataset was produced with.
        """
        minima = np.asarray(minima, dtype=np.float64).ravel()
        maxima = np.asarray(maxima, dtype=np.float64).ravel()
        if minima.shape != maxima.shape:
            raise NormalizationError(
                f"extrema misaligned: {minima.shape} vs {maxima.shape}"
            )
        if minima.shape[0] == 0:
            raise NormalizationError("extrema must cover at least one column")
        if not (np.all(np.isfinite(minima)) and np.all(np.isfinite(maxima))):
            raise NormalizationError("extrema contain non-finite values")
        if np.any(maxima < minima):
            raise NormalizationError("maxima must not be below minima")
        scaler = cls()
        scaler._minima = minima.copy()
        scaler._maxima = maxima.copy()
        return scaler

    @property
    def is_fitted(self) -> bool:
        return self._minima is not None

    @property
    def minima(self) -> np.ndarray:
        self._require_fitted()
        assert self._minima is not None
        return self._minima.copy()

    @property
    def maxima(self) -> np.ndarray:
        self._require_fitted()
        assert self._maxima is not None
        return self._maxima.copy()

    def fit(self, matrix: np.ndarray) -> "MinMaxNormalizer":
        """Record per-column extrema of ``matrix`` (n_samples x n_columns)."""
        data = _as_2d(matrix)
        if data.shape[0] == 0:
            raise NormalizationError("cannot fit a normalizer on zero samples")
        if not np.all(np.isfinite(data)):
            raise NormalizationError("normalizer input contains non-finite values")
        self._minima = data.min(axis=0)
        self._maxima = data.max(axis=0)
        return self

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        """Apply Eq. (1) with the fitted extrema.

        Values outside the fitted range (possible when transforming data
        not seen at fit time) are clipped to ``[-1, 1]`` so downstream
        distance computations stay bounded.
        """
        self._require_fitted()
        assert self._minima is not None and self._maxima is not None
        data = _as_2d(matrix)
        if data.shape[1] != self._minima.shape[0]:
            raise NormalizationError(
                f"expected {self._minima.shape[0]} columns, got {data.shape[1]}"
            )
        span = self._maxima - self._minima
        safe_span = np.where(span == 0, 1.0, span)
        scaled = 2.0 * (data - self._minima) / safe_span - 1.0
        scaled = np.where(span == 0, 0.0, scaled)
        return np.clip(scaled, -1.0, 1.0)

    def fit_transform(self, matrix: np.ndarray) -> np.ndarray:
        return self.fit(matrix).transform(matrix)

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise NormalizationError("normalizer used before fit()")


def _as_2d(matrix: np.ndarray) -> np.ndarray:
    data = np.asarray(matrix, dtype=np.float64)
    if data.ndim == 1:
        data = data.reshape(1, -1)
    if data.ndim != 2:
        raise NormalizationError(f"expected a 2-D matrix, got ndim={data.ndim}")
    return data
