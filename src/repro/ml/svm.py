"""Linear SVM classifier (Table II's SVM row).

One-vs-rest linear SVMs trained by subgradient descent on the L2-regularized
hinge loss (Pegasos-style deterministic full-batch variant).  The paper's
SVM is its slowest-training predictor (2947 s) with middling accuracy; a
margin classifier on these mixed-scale structural features is genuinely a
poor fit, which the evaluation reproduces.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_fitted, check_xy

__all__ = ["LinearSVC"]


class LinearSVC(BaseEstimator):
    """One-vs-rest linear SVM with hinge loss."""

    def __init__(self, c: float = 1.0, max_iter: int = 2000, lr: float = 0.05):
        if c <= 0.0 or max_iter < 1 or lr <= 0.0:
            raise ValueError("bad hyperparameters for LinearSVC")
        self.c = c
        self.max_iter = max_iter
        self.lr = lr
        self.coef_: np.ndarray | None = None
        self.intercept_: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LinearSVC":
        x, y = check_xy(x, y)
        n, d = x.shape
        k = int(y.max()) + 1
        w = np.zeros((d, k))
        b = np.zeros(k)
        # Targets in {-1, +1} per one-vs-rest problem.
        targets = np.full((n, k), -1.0)
        targets[np.arange(n), y] = 1.0
        lam = 1.0 / (self.c * n)
        for it in range(1, self.max_iter + 1):
            margins = targets * (x @ w + b)
            active = margins < 1.0  # violating samples per binary problem
            # Subgradient of mean hinge + L2.
            gw = lam * w - (x.T @ (targets * active)) / n
            gb = -(targets * active).sum(axis=0) / n
            step = self.lr / np.sqrt(it)  # diminishing step
            w -= step * gw
            b -= step * gb
        self.coef_ = w
        self.intercept_ = b
        return self

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, "coef_")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.coef_.shape[0]:
            raise ValueError(
                f"expected (n, {self.coef_.shape[0]}) input, got shape {x.shape}"
            )
        return x @ self.coef_ + self.intercept_

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.decision_function(x), axis=1)
