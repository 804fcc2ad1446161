"""Random-forest classifier — the paper's chosen scheduler model (§V-A).

Bootstrap-aggregated CART trees with per-node random feature subsampling
(``sqrt`` by default).  Prediction averages per-tree class distributions
(soft voting), which is also what breaks ties smoothly on the imbalanced
scheduler dataset.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_fitted, check_xy
from repro.ml.tree import DecisionTreeClassifier
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
        self._flat = None  # lazily built FlatForest, invalidated by fit()

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        x, y = check_xy(x, y)
        y = y.astype(np.int64)
        self.n_classes_ = int(y.max()) + 1
        rng = ensure_rng(self.random_state)
        tree_rngs = spawn(rng, self.n_estimators)
        n = x.shape[0]
        self.trees_ = []
        for t_rng in tree_rngs:
            if self.bootstrap:
                idx = t_rng.integers(0, n, size=n)
            else:
                idx = np.arange(n)
            tree = DecisionTreeClassifier(
                criterion=self.criterion,
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=t_rng,
            )
            tree.n_classes_ = self.n_classes_  # keep proba width uniform
            xb, yb = x[idx], y[idx]
            tree.fit(xb, yb)
            # fit() recomputes n_classes_ from the bootstrap labels; restore
            # the forest-wide width so probabilities stack.
            if tree.n_classes_ != self.n_classes_:
                tree = self._refit_padded(tree, xb, yb)
            self.trees_.append(tree)
        self._flat = None
        return self

    def _refit_padded(self, tree, xb, yb) -> DecisionTreeClassifier:
        """Refit a tree whose bootstrap missed the top class, padding the
        label set with one synthetic no-op so proba widths match."""
        # Append a single sample of the max class drawn from the data it
        # would least distort: duplicate the first sample's features.
        pad_x = np.vstack([xb, xb[:1]])
        pad_y = np.append(yb, self.n_classes_ - 1)
        tree.fit(pad_x, pad_y)
        return tree

    def flatten(self):
        """All fitted trees as one :class:`~repro.ml.flatten.FlatForest`
        arena (built once per fit, cached)."""
        check_fitted(self, "trees_")
        if self._flat is None:
            from repro.ml.flatten import FlatForest

            self._flat = FlatForest.from_trees(self.trees_)
        return self._flat

    def split_points(self, column: int) -> np.ndarray:
        """Sorted unique thresholds any tree splits ``column`` at: every
        value between two consecutive ones scores the same bits."""
        return self.flatten().split_points(column)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Soft-voted distributions via the flat-arena fast path.

        Every tree routes the whole batch simultaneously; accumulation
        runs in tree order so the result is bit-identical to averaging
        per-tree walks of the node graphs (the reference in
        ``tests/placement_oracle.py``).
        """
        check_fitted(self, "trees_")
        x = np.asarray(x, dtype=np.float64)
        flat = self.flatten()
        if x.ndim != 2 or x.shape[1] != flat.n_features:
            raise ValueError(
                f"expected (n, {flat.n_features}) input, got shape {x.shape}"
            )
        return flat.predict_proba(x)

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
