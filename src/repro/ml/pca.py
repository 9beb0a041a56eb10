"""Principal component analysis via singular value decomposition.

Used to project the 30-dimensional failure records onto the two principal
components of the paper's Figure 4 scatter plot.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError


class PCA:
    """Dense PCA on centered data.

    Components are deterministic up to sign; the sign is fixed so the
    largest-magnitude loading of each component is positive, making
    projections reproducible across platforms.
    """

    def __init__(self, n_components: int) -> None:
        if n_components < 1:
            raise ModelError("n_components must be positive")
        self._n_components = n_components
        self.mean_: np.ndarray | None = None
        self.components_: np.ndarray | None = None
        self.explained_variance_: np.ndarray | None = None
        self.explained_variance_ratio_: np.ndarray | None = None

    @property
    def n_components(self) -> int:
        return self._n_components

    def fit(self, data: np.ndarray) -> "PCA":
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ModelError("fit expects a 2-D matrix")
        n_samples, n_features = data.shape
        if self._n_components > min(n_samples, n_features):
            raise ModelError(
                f"cannot extract {self._n_components} components from a "
                f"{n_samples}x{n_features} matrix"
            )
        self.mean_ = data.mean(axis=0)
        centered = data - self.mean_
        _, singular_values, vt = np.linalg.svd(centered, full_matrices=False)
        components = vt[: self._n_components]
        # Deterministic sign convention.
        for row in components:
            pivot = np.argmax(np.abs(row))
            if row[pivot] < 0:
                row *= -1.0
        self.components_ = components
        variance = (singular_values ** 2) / max(n_samples - 1, 1)
        self.explained_variance_ = variance[: self._n_components]
        total = float(variance.sum())
        self.explained_variance_ratio_ = (
            self.explained_variance_ / total if total > 0
            else np.zeros(self._n_components)
        )
        return self

    def transform(self, data: np.ndarray) -> np.ndarray:
        if self.components_ is None or self.mean_ is None:
            raise ModelError("PCA used before fit()")
        data = np.asarray(data, dtype=np.float64)
        return (data - self.mean_) @ self.components_.T

    def fit_transform(self, data: np.ndarray) -> np.ndarray:
        return self.fit(data).transform(data)
