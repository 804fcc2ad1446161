"""k-nearest-neighbours classifier (Table II's k-NN row).

Brute-force Euclidean k-NN, vectorized: pairwise distances via the
``|a-b|^2 = |a|^2 - 2ab + |b|^2`` expansion (one GEMM), block-processed so
memory stays bounded on large query sets.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_fitted, check_xy

__all__ = ["KNeighborsClassifier"]

_BLOCK = 2048  # query rows per distance block


class KNeighborsClassifier(BaseEstimator):
    """Majority-vote k-NN with optional inverse-distance weighting."""

    def __init__(self, n_neighbors: int = 5, weights: str = "uniform"):
        if n_neighbors < 1:
            raise ValueError(f"n_neighbors must be >= 1, got {n_neighbors}")
        if weights not in ("uniform", "distance"):
            raise ValueError(f"weights must be 'uniform' or 'distance', got {weights!r}")
        self.n_neighbors = n_neighbors
        self.weights = weights
        self.x_: np.ndarray | None = None
        self.y_: np.ndarray | None = None
        self.n_classes_: int = 0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "KNeighborsClassifier":
        x, y = check_xy(x, y)
        if self.n_neighbors > x.shape[0]:
            raise ValueError(
                f"n_neighbors={self.n_neighbors} > n_samples={x.shape[0]}"
            )
        self.x_ = x
        self.y_ = y
        self.n_classes_ = int(self.y_.max()) + 1
        self._sq_norms = np.einsum("ij,ij->i", x, x)
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, "x_")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.x_.shape[1]:
            raise ValueError(
                f"expected (n, {self.x_.shape[1]}) input, got shape {x.shape}"
            )
        k = self.n_neighbors
        out = np.empty((x.shape[0], self.n_classes_))
        for start in range(0, x.shape[0], _BLOCK):
            q = x[start : start + _BLOCK]
            d2 = (
                np.einsum("ij,ij->i", q, q)[:, None]
                - 2.0 * (q @ self.x_.T)
                + self._sq_norms[None, :]
            )
            np.maximum(d2, 0.0, out=d2)  # clamp fp cancellation
            nn = np.argpartition(d2, k - 1, axis=1)[:, :k]
            labels = self.y_[nn]
            if self.weights == "uniform":
                w = np.ones_like(labels, dtype=np.float64)
            else:
                d = np.sqrt(np.take_along_axis(d2, nn, axis=1))
                w = 1.0 / np.maximum(d, 1e-12)
            votes = np.zeros((q.shape[0], self.n_classes_))
            rows = np.repeat(np.arange(q.shape[0]), k)
            np.add.at(votes, (rows, labels.ravel()), w.ravel())
            out[start : start + _BLOCK] = votes / votes.sum(axis=1, keepdims=True)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(x), axis=1)
