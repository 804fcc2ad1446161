"""Random-forest classifier — the paper's chosen scheduler model (§V-A).

Bootstrap-aggregated CART trees with per-node random feature subsampling
(``sqrt`` by default).  Prediction averages per-tree class distributions
(soft voting), which is also what breaks ties smoothly on the imbalanced
scheduler dataset.  The fitted forest is one arena joining its trees'.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_fitted, check_xy
from repro.ml.flatten import FlatForest
from repro.ml.tree import DecisionTreeClassifier, _grow
from repro.rng import ensure_rng, spawn

__all__ = ["RandomForestClassifier"]


class RandomForestClassifier(BaseEstimator):
    """Bagged decision trees with feature subsampling.

    Parameters mirror Table I: ``n_estimators``, ``max_depth``,
    ``criterion`` and ``min_samples_leaf``; ``max_features`` defaults to
    'sqrt' as in sklearn.
    """

    pure_fit = True

    def __init__(
        self,
        n_estimators: int = 50,
        criterion: str = "gini",
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_features: "int | str | None" = "sqrt",
        bootstrap: bool = True,
        random_state: "int | np.random.Generator | None" = None,
    ):
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        self.n_estimators = n_estimators
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.trees_: list[DecisionTreeClassifier] | None = None
        self.n_classes_: int = 0
        self.arena_: FlatForest | None = None  # every tree's arena, joined

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        x, y = check_xy(x, y)
        self.n_classes_ = n_classes = int(y.max()) + 1
        n = x.shape[0]
        trees, jobs = [], []
        for t_rng in spawn(ensure_rng(self.random_state), self.n_estimators):
            trees.append(DecisionTreeClassifier(
                criterion=self.criterion,
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=t_rng,
            ))
            rows = t_rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            jobs.append((rows, y[rows], t_rng))
        # A bootstrap that misses the top class grows at its own, narrower
        # class count (an all-zero class column can change impurity bits,
        # since numpy sums 8 or more terms pairwise), then regrows from the
        # same generator with one synthetic top-class sample, a copy of its
        # first row, so every tree's probabilities are as wide.
        widths = [int(yb.max()) + 1 for _, yb, _ in jobs]
        grown = {}
        for width in set(widths):
            group = [i for i, w in enumerate(widths) if w == width]
            grown.update(zip(group, _grow(trees[0], x, [jobs[i] for i in group], width)))
        short = [i for i, w in enumerate(widths) if w < n_classes]
        padded = [(np.append(rows, rows[0]), np.append(yb, n_classes - 1), t_rng)
                  for rows, yb, t_rng in (jobs[i] for i in short)]
        if short:
            grown.update(zip(short, _grow(trees[0], x, padded, n_classes)))
        self.trees_ = [tree._fitted(*grown[i], n_classes) for i, tree in enumerate(trees)]
        self.arena_ = FlatForest.join([tree.arena_ for tree in self.trees_])
        return self

    def split_points(self, column: int) -> np.ndarray:
        """Sorted unique thresholds any tree splits ``column`` at: every
        value between two consecutive ones scores the same bits."""
        check_fitted(self, "arena_")
        return self.arena_.split_points(column)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Soft-voted distributions via the arena fast path.

        Every tree routes the whole batch simultaneously; accumulation
        runs in tree order so the result is bit-identical to averaging
        per-tree walks of the arena (the reference in
        ``tests/placement_oracle.py``).
        """
        check_fitted(self, "arena_")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.arena_.n_features:
            raise ValueError(
                f"expected (n, {self.arena_.n_features}) input, got shape {x.shape}"
            )
        return self.arena_.predict_proba(x)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(x), axis=1)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Forest-averaged mean decrease in impurity, normalized."""
        check_fitted(self, "trees_")
        stacked = np.vstack([t.feature_importances_ for t in self.trees_])
        mean = stacked.mean(axis=0)
        total = mean.sum()
        return mean / total if total > 0 else mean
