"""Distance measures for degradation analysis.

The paper compares Euclidean and Mahalanobis distance for quantifying the
similarity of health records to the failure record (Section IV-C) and
finds Euclidean distance characterizes the near-failure changes better;
both are provided here.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError


def euclidean_to_reference(matrix: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Euclidean distance of every row of ``matrix`` to ``reference``.

    This is the dissimilarity series of the paper's Figure 7 when
    ``matrix`` is a drive's health profile and ``reference`` its failure
    record.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if matrix.ndim != 2 or reference.ndim != 1:
        raise ModelError("expected a 2-D matrix and a 1-D reference")
    if matrix.shape[1] != reference.shape[0]:
        raise ModelError(
            f"matrix has {matrix.shape[1]} columns, reference {reference.shape[0]}"
        )
    return np.linalg.norm(matrix - reference, axis=1)


class MahalanobisDistance:
    """Mahalanobis distance under a covariance fitted on reference data.

    The covariance is regularized with a small ridge so that degenerate
    attributes (constant columns) do not make it singular — the situation
    the paper observed where "the lower Mahalanobis distances are all the
    same" is reproduced by near-singular covariances.
    """

    def __init__(self, ridge: float = 1.0e-6) -> None:
        if ridge < 0:
            raise ModelError("ridge must be non-negative")
        self._ridge = ridge
        self._mean: np.ndarray | None = None
        self._precision: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        return self._precision is not None

    def fit(self, data: np.ndarray) -> "MahalanobisDistance":
        """Estimate the covariance from ``data`` (n_samples x n_features)."""
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ModelError("fit expects a 2-D matrix")
        if data.shape[0] < 2:
            raise ModelError("need at least two samples to fit a covariance")
        self._mean = data.mean(axis=0)
        covariance = np.cov(data, rowvar=False)
        covariance = np.atleast_2d(covariance)
        covariance = covariance + self._ridge * np.eye(covariance.shape[0])
        self._precision = np.linalg.inv(covariance)
        return self

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        """Mahalanobis distance between two vectors."""
        self._require_fitted()
        assert self._precision is not None
        delta = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
        return float(np.sqrt(delta @ self._precision @ delta))

    def to_reference(self, matrix: np.ndarray, reference: np.ndarray) -> np.ndarray:
        """Distance of every row of ``matrix`` to ``reference``."""
        self._require_fitted()
        assert self._precision is not None
        deltas = np.asarray(matrix, dtype=np.float64) - np.asarray(
            reference, dtype=np.float64
        )
        quadratic = np.einsum("ij,jk,ik->i", deltas, self._precision, deltas)
        return np.sqrt(np.maximum(quadratic, 0.0))

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise ModelError("MahalanobisDistance used before fit()")
