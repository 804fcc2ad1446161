"""Reference CART grower: one recursive call per node, one pass per feature.

The oracle for :func:`repro.ml.tree._grow`, which grows every tree of a
forest in one lockstep pass.  This is the grower the package used before
that: each node draws its candidate features from the tree's generator,
sorts the node's rows once per candidate, and recurses left then right.
The lockstep grower must reproduce it bit for bit: the same arena, the
same ``_importance_raw`` and the same generator state after the fit.

The reference grows a graph of :class:`_Node` objects, as the package
once did, and flattens the graph into a preorder arena the way the
package did before its grower wrote arenas directly: a forest's trees
are flattened into one arena together, not joined afterwards.

It keeps the threshold rule of the package (the midpoint of two adjacent
values, or the lower value where the midpoint rounds onto the upper one
or overflows), so the comparison covers it too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import check_xy
from repro.ml.flatten import FlatForest
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier, _impurity, _n_candidates
from repro.rng import ensure_rng, spawn

__all__ = ["reference_fit_tree", "reference_fit_forest"]


@dataclass
class _Node:
    """One tree node; leaves carry a class distribution."""

    proba: np.ndarray            # class distribution at this node
    feature: int = -1            # split feature (-1 = leaf)
    threshold: float = 0.0       # go left iff x[feature] <= threshold
    left: "_Node | None" = None
    right: "_Node | None" = None


def _flatten(roots: "list[_Node]", n_features: int) -> FlatForest:
    """The node graphs under ``roots`` as one arena: each tree in
    preorder, child links absolute, a tree's root at the start of its run."""
    feature, threshold, left, right, proba, starts = [], [], [], [], [], []
    max_depth = 0
    for root in roots:
        starts.append(len(feature))
        stack = [(root, -1, False, 0)]  # (node, parent index, is right child, depth)
        while stack:
            node, parent, is_right, depth = stack.pop()
            i = len(feature)
            if parent >= 0:
                (right if is_right else left)[parent] = i
            max_depth = max(max_depth, depth)
            feature.append(node.feature)
            threshold.append(node.threshold)
            left.append(-1)
            right.append(-1)
            proba.append(node.proba)
            if node.feature >= 0:
                # Push right first so the left child pops (and lands) first.
                stack.append((node.right, i, True, depth + 1))
                stack.append((node.left, i, False, depth + 1))
    return FlatForest(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        proba=np.vstack(proba),
        roots=np.asarray(starts, dtype=np.intp),
        n_features=n_features,
        max_depth=max_depth,
    )


def _best_split(tree, x, y, rng) -> "tuple[int, float] | None":
    n = y.size
    k = _n_candidates(tree.max_features, tree.n_features_)
    if k < tree.n_features_:
        features = rng.choice(tree.n_features_, size=k, replace=False)
    else:
        features = np.arange(tree.n_features_)

    onehot = np.zeros((n, tree.n_classes_))
    onehot[np.arange(n), y] = 1.0

    best = None
    best_score = np.inf
    min_leaf = tree.min_samples_leaf
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
        imp_left = _impurity(left_counts, tree.criterion)
        imp_right = _impurity(right_counts, tree.criterion)
        weighted = (sizes_left * imp_left + (n - sizes_left) * imp_right) / n
        weighted = np.where(valid, weighted, np.inf)
        i = int(np.argmin(weighted))
        if weighted[i] < best_score - 1e-12:
            best_score = weighted[i]
            lo, hi = xs[i], xs[i + 1]
            with np.errstate(over="ignore"):
                mid = 0.5 * (lo + hi)
            best = (int(f), float(mid if lo <= mid < hi else lo))

    parent_imp = float(_impurity(onehot.sum(axis=0)[None, :], tree.criterion)[0])
    if best is None or best_score >= parent_imp - 1e-12:
        return None  # no informative split
    return best


def _grow(tree, x, y, depth, rng) -> _Node:
    counts = np.bincount(y, minlength=tree.n_classes_).astype(np.float64)
    node = _Node(proba=counts / counts.sum())
    if (
        (tree.max_depth is not None and depth >= tree.max_depth)
        or y.size < 2 * tree.min_samples_leaf
        or counts.max() == counts.sum()  # pure node
    ):
        return node

    split = _best_split(tree, x, y, rng)
    if split is None:
        return node
    feature, threshold = split
    mask = x[:, feature] <= threshold
    node.feature = feature
    node.threshold = threshold
    # Mean-decrease-in-impurity accounting for feature_importances_.
    parent_imp = float(_impurity(counts[None, :], tree.criterion)[0])
    left_counts = np.bincount(y[mask], minlength=tree.n_classes_).astype(float)
    right_counts = counts - left_counts
    n = float(y.size)
    child_imp = (
        left_counts.sum() * float(_impurity(left_counts[None, :], tree.criterion)[0])
        + right_counts.sum() * float(_impurity(right_counts[None, :], tree.criterion)[0])
    ) / n
    tree._importance_raw[feature] += (n / tree._n_fit_samples) * (
        parent_imp - child_imp
    )
    node.left = _grow(tree, x[mask], y[mask], depth + 1, rng)
    node.right = _grow(tree, x[~mask], y[~mask], depth + 1, rng)
    return node


def reference_fit_tree(tree: DecisionTreeClassifier, x, y,
                       rng=None) -> _Node:
    """Fit ``tree`` in place with the recursive grower; returns the root
    of its node graph.

    ``rng`` overrides the tree's ``random_state`` (a forest passes each
    tree's spawned generator).
    """
    x, y = check_xy(x, y)
    tree.n_classes_ = int(y.max()) + 1
    tree.n_features_ = x.shape[1]
    tree._importance_raw = np.zeros(tree.n_features_)
    tree._n_fit_samples = y.size
    if rng is None:
        rng = ensure_rng(tree.random_state)
    root = _grow(tree, x, y, 0, rng)
    tree.arena_ = _flatten([root], tree.n_features_)
    return root


def reference_fit_forest(forest: RandomForestClassifier, x, y) -> RandomForestClassifier:
    """Fit ``forest`` in place one tree at a time with the recursive grower.

    A bootstrap that misses the top class is grown, then regrown from the
    same generator with one synthetic sample of the top class (a copy of
    its first row) appended, so every tree's probabilities are as wide.
    """
    x, y = check_xy(x, y)
    forest.n_classes_ = int(y.max()) + 1
    rng = ensure_rng(forest.random_state)
    n = x.shape[0]
    forest.trees_, roots = [], []
    for t_rng in spawn(rng, forest.n_estimators):
        idx = t_rng.integers(0, n, size=n) if forest.bootstrap else np.arange(n)
        tree = DecisionTreeClassifier(
            criterion=forest.criterion,
            max_depth=forest.max_depth,
            min_samples_leaf=forest.min_samples_leaf,
            max_features=forest.max_features,
            random_state=t_rng,
        )
        xb, yb = x[idx], y[idx]
        root = reference_fit_tree(tree, xb, yb, rng=t_rng)
        if tree.n_classes_ != forest.n_classes_:
            pad_x = np.vstack([xb, xb[:1]])
            pad_y = np.append(yb, forest.n_classes_ - 1)
            root = reference_fit_tree(tree, pad_x, pad_y, rng=t_rng)
        forest.trees_.append(tree)
        roots.append(root)
    forest.arena_ = _flatten(roots, x.shape[1])
    return forest
