"""CART decision-tree classifier (Table II's second-best predictor).

Standard greedy axis-aligned splitting with gini or entropy impurity
(Table I's ``criterion`` hyperparameter), ``max_depth`` and
``min_samples_leaf`` controls, and ``max_features`` random feature
subsampling (used by the random forest).

The split search is fully vectorized per node: one argsort per candidate
feature, class-count prefix sums, and an impurity evaluation across all
thresholds at once — no Python loop over samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import BaseEstimator, check_fitted, check_xy
from repro.rng import ensure_rng

__all__ = ["DecisionTreeClassifier"]


@dataclass
class _Node:
    """One tree node; leaves carry a class distribution."""

    proba: np.ndarray            # class distribution at this node
    feature: int = -1            # split feature (-1 = leaf)
    threshold: float = 0.0       # go left iff x[feature] <= threshold
    left: "._Node | None" = None
    right: "._Node | None" = None

    @property
    def is_leaf(self) -> bool:
        """Whether this node has no split."""
        return self.feature < 0


def _impurity(counts: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity of class-count rows; ``counts`` is (..., n_classes)."""
    totals = counts.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(totals > 0, counts / totals, 0.0)
    if criterion == "gini":
        return 1.0 - np.sum(p * p, axis=-1)
    if criterion == "entropy":
        logs = np.zeros_like(p)
        np.log2(p, where=p > 0, out=logs)
        return -np.sum(p * logs, axis=-1)
    raise ValueError(f"criterion must be 'gini' or 'entropy', got {criterion!r}")


class DecisionTreeClassifier(BaseEstimator):
    """Greedy CART classifier.

    Parameters mirror Table I: ``criterion`` ('gini'/'entropy'),
    ``max_depth`` and ``min_samples_leaf``.  ``max_features`` ('sqrt', an
    int, or None for all) enables the forest's feature subsampling;
    ``random_state`` seeds it.
    """

    pure_fit = True

    def __init__(
        self,
        criterion: str = "gini",
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_features: "int | str | None" = None,
        random_state: "int | np.random.Generator | None" = None,
    ):
        if criterion not in ("gini", "entropy"):
            raise ValueError(f"criterion must be 'gini' or 'entropy', got {criterion!r}")
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.root_: _Node | None = None
        self.n_classes_: int = 0
        self.n_features_: int = 0
        self._importance_raw: np.ndarray | None = None
        self._n_fit_samples: int = 0
        self._flat = None  # lazily built FlatTree, invalidated by fit()

    # -- fitting ---------------------------------------------------------

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        x, y = check_xy(x, y)
        y = y.astype(np.int64)
        if y.min() < 0:
            raise ValueError("labels must be non-negative integers")
        self.n_classes_ = int(y.max()) + 1
        self.n_features_ = x.shape[1]
        self._importance_raw = np.zeros(self.n_features_)
        self._n_fit_samples = y.size
        rng = ensure_rng(self.random_state)
        self.root_ = self._grow(x, y, depth=0, rng=rng)
        self._flat = None
        return self

    def _n_candidate_features(self) -> int:
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        k = int(self.max_features)
        if not (1 <= k <= self.n_features_):
            raise ValueError(
                f"max_features must be in [1, {self.n_features_}], got {k}"
            )
        return k

    def _grow(self, x: np.ndarray, y: np.ndarray, depth: int, rng) -> _Node:
        counts = np.bincount(y, minlength=self.n_classes_).astype(np.float64)
        node = _Node(proba=counts / counts.sum())
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or y.size < 2 * self.min_samples_leaf
            or counts.max() == counts.sum()  # pure node
        ):
            return node

        split = self._best_split(x, y, rng)
        if split is None:
            return node
        feature, threshold = split
        mask = x[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        # Mean-decrease-in-impurity accounting for feature_importances_.
        parent_imp = float(
            _impurity(counts[None, :], self.criterion)[0]
        )
        left_counts = np.bincount(y[mask], minlength=self.n_classes_).astype(float)
        right_counts = counts - left_counts
        n = float(y.size)
        child_imp = (
            left_counts.sum() * float(_impurity(left_counts[None, :], self.criterion)[0])
            + right_counts.sum() * float(_impurity(right_counts[None, :], self.criterion)[0])
        ) / n
        self._importance_raw[feature] += (n / self._n_fit_samples) * (
            parent_imp - child_imp
        )
        node.left = self._grow(x[mask], y[mask], depth + 1, rng)
        node.right = self._grow(x[~mask], y[~mask], depth + 1, rng)
        return node

    def _best_split(self, x, y, rng) -> "tuple[int, float] | None":
        n = y.size
        k = self._n_candidate_features()
        if k < self.n_features_:
            features = rng.choice(self.n_features_, size=k, replace=False)
        else:
            features = np.arange(self.n_features_)

        onehot = np.zeros((n, self.n_classes_))
        onehot[np.arange(n), y] = 1.0

        best = None
        best_score = np.inf
        min_leaf = self.min_samples_leaf
        for f in features:
            order = np.argsort(x[:, f], kind="stable")
            xs = x[order, f]
            # Prefix class counts after each potential left block.
            left_counts = np.cumsum(onehot[order], axis=0)
            total = left_counts[-1]
            # Candidate split after position i (left = [0..i]); valid iff
            # both sides satisfy min_samples_leaf and the value changes.
            sizes_left = np.arange(1, n + 1, dtype=np.float64)
            valid = (
                (sizes_left >= min_leaf)
                & (n - sizes_left >= min_leaf)
                & np.append(xs[:-1] < xs[1:], False)
            )
            if not np.any(valid):
                continue
            right_counts = total[None, :] - left_counts
            imp_left = _impurity(left_counts, self.criterion)
            imp_right = _impurity(right_counts, self.criterion)
            weighted = (sizes_left * imp_left + (n - sizes_left) * imp_right) / n
            weighted = np.where(valid, weighted, np.inf)
            i = int(np.argmin(weighted))
            if weighted[i] < best_score - 1e-12:
                best_score = weighted[i]
                best = (int(f), float(0.5 * (xs[i] + xs[i + 1])))

        parent_imp = float(_impurity(onehot.sum(axis=0)[None, :], self.criterion)[0])
        if best is None or best_score >= parent_imp - 1e-12:
            return None  # no informative split
        return best

    # -- inference ---------------------------------------------------------

    def _check_x(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, "root_")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features_:
            raise ValueError(
                f"expected (n, {self.n_features_}) input, got shape {x.shape}"
            )
        return x

    def flatten(self):
        """The fitted tree as a :class:`~repro.ml.flatten.FlatTree`
        (built once per fit, cached)."""
        check_fitted(self, "root_")
        if self._flat is None:
            from repro.ml.flatten import FlatTree

            self._flat = FlatTree.from_tree(self)
        return self._flat

    def split_points(self, column: int) -> np.ndarray:
        """Sorted unique thresholds this tree splits ``column`` at: every
        value between two consecutive ones takes the same path."""
        return self.flatten().split_points(column)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Batched class distributions via the flat-array fast path.

        Bit-identical to a recursive walk of the ``_Node`` graph (the
        reference in ``tests/placement_oracle.py``, asserted by
        ``tests/property``): the same comparisons route every sample to
        the same leaf, whose stored distribution is copied out.
        """
        return self.flatten().predict_proba(self._check_x(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(x), axis=1)

    # -- introspection ---------------------------------------------------------

    def export_text(self, feature_names: "list[str] | None" = None,
                    class_names: "list[str] | None" = None) -> str:
        """Human-readable tree dump (the interpretability the paper trades
        away when it picks the forest over the single tree).

        One line per node: ``feature <= threshold`` for splits, the class
        distribution for leaves.
        """
        check_fitted(self, "root_")
        if feature_names is None:
            feature_names = [f"x[{i}]" for i in range(self.n_features_)]
        if len(feature_names) < self.n_features_:
            raise ValueError(
                f"need >= {self.n_features_} feature names, got {len(feature_names)}"
            )
        if class_names is None:
            class_names = [str(i) for i in range(self.n_classes_)]

        lines: list[str] = []

        def walk(node: _Node, depth: int) -> None:
            pad = "|   " * depth
            if node.is_leaf:
                winner = class_names[int(np.argmax(node.proba))]
                dist = ", ".join(f"{p:.2f}" for p in node.proba)
                lines.append(f"{pad}|-- class: {winner}  [{dist}]")
                return
            name = feature_names[node.feature]
            lines.append(f"{pad}|-- {name} <= {node.threshold:g}")
            walk(node.left, depth + 1)
            lines.append(f"{pad}|-- {name} >  {node.threshold:g}")
            walk(node.right, depth + 1)

        walk(self.root_, 0)
        return "\n".join(lines)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean decrease in impurity per feature, normalized to sum to 1.

        The paper's §V-B claim — "the most important parameters is the
        samples size and the state of the GPU" — is checkable directly
        from these on the scheduler dataset.
        """
        check_fitted(self, "root_")
        total = self._importance_raw.sum()
        if total <= 0.0:
            return np.zeros_like(self._importance_raw)
        return self._importance_raw / total

    @property
    def depth_(self) -> int:
        """Realized depth of the fitted tree."""
        check_fitted(self, "root_")

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root_)

    @property
    def n_leaves_(self) -> int:
        """Leaf count of the fitted tree."""
        check_fitted(self, "root_")

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 1
            return walk(node.left) + walk(node.right)

        return walk(self.root_)
