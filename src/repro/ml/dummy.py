"""No-skill baseline classifiers (the Table II "Baseline" row).

The paper's baseline is uniform random device selection (41%).  These
estimators formalize it — plus the two other standard no-skill baselines —
so comparisons always have a floor in the same estimator API.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_fitted, check_xy
from repro.rng import ensure_rng

__all__ = ["DummyClassifier"]


class DummyClassifier(BaseEstimator):
    """Predicts without looking at the features.

    Strategies:

    * ``uniform`` — each class equally likely (the paper's baseline);
    * ``most_frequent`` — always the majority class;
    * ``stratified`` — classes drawn with their training frequencies.
    """

    def __init__(
        self,
        strategy: str = "uniform",
        random_state: "int | np.random.Generator | None" = None,
    ):
        if strategy not in ("uniform", "most_frequent", "stratified"):
            raise ValueError(
                f"strategy must be uniform/most_frequent/stratified, got {strategy!r}"
            )
        self.strategy = strategy
        self.random_state = random_state
        self.classes_: np.ndarray | None = None
        self.class_prior_: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DummyClassifier":
        _, y = check_xy(x, y)
        counts = np.bincount(y)
        self.classes_ = np.flatnonzero(counts)
        self.class_prior_ = counts[self.classes_] / counts.sum()
        self._rng = ensure_rng(self.random_state)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, "classes_")
        x = np.asarray(x)
        n = x.shape[0]
        if self.strategy == "most_frequent":
            return np.full(n, self.classes_[np.argmax(self.class_prior_)])
        if self.strategy == "uniform":
            return self._rng.choice(self.classes_, size=n)
        return self._rng.choice(self.classes_, size=n, p=self.class_prior_)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, "classes_")
        n = np.asarray(x).shape[0]
        k = int(self.classes_.max()) + 1
        row = np.zeros(k)
        if self.strategy == "uniform":
            row[self.classes_] = 1.0 / len(self.classes_)
        elif self.strategy == "most_frequent":
            row[self.classes_[np.argmax(self.class_prior_)]] = 1.0
        else:
            row[self.classes_] = self.class_prior_
        return np.tile(row, (n, 1))
