"""CART decision-tree classifier (Table II's second-best predictor).

Standard greedy axis-aligned splitting with gini or entropy impurity
(Table I's ``criterion`` hyperparameter), ``max_depth`` and
``min_samples_leaf`` controls, and ``max_features`` random feature
subsampling (used by the random forest).

One grower, :func:`_grow`, fits a single tree and all trees of a forest
alike.  The trees grow in lockstep: each step, every unfinished tree takes
its next node in depth-first order, and one batched pass scores all those
nodes at once -- a stable sort per (node, candidate feature) segment,
class-count prefix sums and an impurity evaluation across every threshold.
Python loops run over trees and candidate features, never over samples.
Each tree is written straight into a :class:`~repro.ml.flatten.FlatForest`
arena in preorder, which is its fitted state: no node objects are built.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_fitted, check_xy
from repro.ml.flatten import FlatForest
from repro.rng import ensure_rng

__all__ = ["DecisionTreeClassifier"]


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


#: Sorted (row, candidate feature) values one scoring pass holds at most
#: (a larger node is scored alone): bounds the pass's temporaries, since a
#: forest's root step holds every bootstrap row once per candidate.
_STEP_ROWS = 8192


def _n_candidates(max_features: "int | str | None", n_features: int) -> int:
    """Features drawn per split search under ``max_features``."""
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    k = int(max_features)
    if not (1 <= k <= n_features):
        raise ValueError(f"max_features must be in [1, {n_features}], got {k}")
    return k


def _grow(params, x: np.ndarray, jobs: list, n_classes: int) -> list:
    """Grow one tree per ``(rows, y, rng)`` job on ``(x[rows], y)``.

    ``params`` (a tree) supplies ``criterion``, ``max_depth``,
    ``min_samples_leaf`` and ``max_features``.  The trees grow in lockstep:
    each step, every tree with a node left to search pops its next one in
    depth-first order and draws that node's candidate features from its
    own generator, so each tree consumes the draws it would alone.  The
    step's nodes are then scored together, in blocks of at most
    ``_STEP_ROWS`` sorted values.  Leaves are pushed and popped too, so
    the order in which a tree's nodes pop is its preorder: their index in
    its arena.  Returns each job's ``(arena, importance)``, the importance
    being the unnormalized mean decrease in impurity per feature.
    """
    n, n_features = x.shape
    k = _n_candidates(params.max_features, n_features)
    criterion, min_leaf = params.criterion, params.min_samples_leaf
    max_depth = np.inf if params.max_depth is None else params.max_depth
    if not n_features:
        max_depth = 0  # nothing to split on: every tree is one leaf

    # Nodes are numbered as they are created, in batches: one entry of
    # ``probas`` and ``depths`` per node; one of ``splits`` per split node,
    # as (node, feature, threshold, left child, right child).
    probas, depths, splits = [], [], []
    n_created = 0

    def add_nodes(counts, depth):
        """Create nodes for class-count rows.  Returns the first one's
        number and which need a split search: those neither as deep as
        allowed, too small to split, nor pure."""
        nonlocal n_created
        size = counts.sum(axis=1)
        probas.append(counts / size[:, None])
        depths.append(depth)
        first, n_created = n_created, n_created + size.size
        return first, (depth < max_depth) & (size >= 2 * min_leaf) & (counts.max(axis=1) < size)

    # Per tree, its nodes left to pop, the next one last: (node,) for a
    # leaf, (node, grower rows, depth, class counts, impurity) for a node
    # to search.  ``preorder`` lists the popped ones.
    n_jobs = len(jobs)
    preorder = [[] for _ in range(n_jobs)]

    def next_search(t):
        """Pop tree ``t``'s nodes up to its next one to search (None when
        there is none left)."""
        stack, order = stacks[t], preorder[t]
        while stack:
            entry = stack.pop()
            order.append(entry[0])
            if len(entry) > 1:
                return entry
        return None

    xt = np.ascontiguousarray(x.T).ravel()  # value (row r, feature f) at f*n + r
    src = np.concatenate([rows for rows, _, _ in jobs])  # grower row -> x row
    labels = np.concatenate([y for _, y, _ in jobs])
    n_fit = np.array([y.size for _, y, _ in jobs])
    counts = np.array([np.bincount(y, minlength=n_classes) for _, y, _ in jobs], dtype=np.float64)
    first, search = add_nodes(counts, np.zeros(n_jobs, dtype=np.intp))
    impurity, ends = _impurity(counts, criterion), np.cumsum(n_fit)
    stacks = [[(first + t, np.arange(ends[t] - n_fit[t], ends[t]), 0, counts[t], impurity[t])
               if search[t] else (first + t,)] for t in range(n_jobs)]
    importance = np.zeros((n_jobs, n_features))
    pending = [next_search(t) for t in range(n_jobs)]
    live = [t for t in range(n_jobs) if pending[t] is not None]
    while live:
        live_ids = np.array(live)
        popped = [pending[t] for t in live]
        feats = np.array([jobs[t][2].choice(n_features, size=k, replace=False)
                          if k < n_features else np.arange(n_features) for t in live])
        b0 = 0
        while b0 < len(live):
            b1, width = b0 + 1, popped[b0][1].size * k
            while b1 < len(live) and width + popped[b1][1].size * k <= _STEP_ROWS:
                width += popped[b1][1].size * k
                b1 += 1
            block = popped[b0:b1]
            hits, feature, threshold, score, left, child_imp, rows, n_left = _split_nodes(
                xt, n, src, labels, block, feats[b0:b1], criterion, min_leaf)
            tree = live_ids[b0 + hits]
            b0 = b1
            if not hits.size:
                continue
            split = [block[i] for i in hits]
            size = np.array([p[1].size for p in split])
            # At most one split per tree per block: each tree accumulates
            # its mean decrease in impurity in depth-first order.
            importance[tree, feature] += (size / n_fit[tree]) * (
                np.array([p[4] for p in split]) - score)
            children = np.concatenate([left, np.array([p[3] for p in split]) - left])
            first, search = add_nodes(children, np.array([p[2] + 1 for p in split] * 2))
            h, n_right = hits.size, size - n_left
            splits.append((np.array([p[0] for p in split]), feature, threshold,
                           np.arange(first, first + h), np.arange(first + h, first + 2 * h)))
            l_end = np.cumsum(n_left)
            r_end = l_end[-1] + np.cumsum(n_right)
            for j, (_, _, d, _, _) in enumerate(split):
                stack = stacks[tree[j]]
                # The right child is pushed first, to pop after the left subtree.
                lc, rc = first + j, first + h + j
                stack.append((rc, rows[r_end[j] - n_right[j]:r_end[j]], d + 1,
                              children[h + j], child_imp[1, j]) if search[h + j] else (rc,))
                stack.append((lc, rows[l_end[j] - n_left[j]:l_end[j]], d + 1,
                              children[j], child_imp[0, j]) if search[j] else (lc,))
        for t in live:
            pending[t] = next_search(t)
        live = [t for t in live if pending[t] is not None]
    return list(zip(_arenas(preorder, n_created, probas, depths, splits, n_features),
                    importance))


def _arenas(preorder, n_created, probas, depths, splits, n_features) -> list:
    """Each tree's arena: its nodes in ``preorder``, child links local."""
    sizes = np.array([len(order) for order in preorder])
    starts = np.cumsum(sizes) - sizes
    order = np.concatenate([np.array(o, dtype=np.intp) for o in preorder])
    position = np.empty(n_created, dtype=np.intp)
    position[order] = np.arange(n_created) - np.repeat(starts, sizes)
    feature = np.full(n_created, -1, dtype=np.int32)
    threshold = np.zeros(n_created)
    links = np.full((2, n_created), -1, dtype=np.int32)
    if splits:
        nodes, feats, thresholds, lefts, rights = (np.concatenate(c) for c in zip(*splits))
        feature[nodes], threshold[nodes] = feats, thresholds
        links[0, nodes], links[1, nodes] = position[lefts], position[rights]
    feature, threshold, links = feature[order], threshold[order], links[:, order]
    proba = np.concatenate(probas)[order]
    max_depth = np.maximum.reduceat(np.concatenate(depths)[order], starts)
    return [FlatForest(feature[s:e], threshold[s:e], links[0, s:e], links[1, s:e],
                       proba[s:e], np.zeros(1, dtype=np.intp), n_features, d)
            for s, e, d in zip(starts, starts + sizes, max_depth)]


def _split_nodes(xt, n, src, labels, block, feats, criterion, min_leaf):
    """Score every pending node of ``block`` on its candidate ``feats``.

    Segment ``(j, s)``, node ``s``'s rows sorted on ``feats[s, j]``, starts
    at ``j * R + start[s]`` of the flat sorted arrays (``R`` block rows).
    A node takes each candidate's first best threshold in draw order, keeps
    a later candidate only if it scores lower by more than 1e-12, and
    splits only if that is below its own impurity by more than 1e-12.
    Returns the ``hits`` (block indices of the nodes that split) and, for
    them: feature, threshold, weighted child impurity, left-child class
    counts, (left, right) child impurities, the rows of every left child
    then of every right child, and the left-child sizes.
    """
    b, k = feats.shape
    sizes = np.array([p[1].size for p in block])
    flat_rows = np.concatenate([p[1] for p in block])
    n_rows = flat_rows.size
    seg = np.repeat(np.arange(b), sizes)
    key = (np.arange(k)[:, None] * b + seg).ravel()
    vals = xt[(feats[seg].T * n + src[flat_rows]).ravel()]
    order = np.lexsort((vals, key))
    xs = vals[order]
    m = xs.size
    # Class prefix counts: one cumsum, minus the running count before each
    # segment -- exact, since the counts are integers.
    cum = np.zeros((m, len(block[0][3])))
    cum[np.arange(m), labels[flat_rows[order % n_rows]]] = 1.0
    np.cumsum(cum, axis=0, out=cum)
    seg_start = (np.arange(k)[:, None] * n_rows + (np.cumsum(sizes) - sizes)).ravel()
    seg_n = np.tile(sizes, k)
    before = cum[seg_start - 1]
    before[0] = 0.0
    size_l = np.arange(1, m + 1) - seg_start[key]
    size_n = seg_n[key]
    # Candidates: both sides keep min_leaf rows and the value changes there
    # (which also rules out each segment's last position).
    valid = (size_l >= min_leaf) & (size_n - size_l >= min_leaf)
    valid[:-1] &= xs[:-1] < xs[1:]
    at = np.flatnonzero(valid)
    seg_at = key[at]
    sides = np.empty((2, at.size, cum.shape[1]))
    np.subtract(cum[at], before[seg_at], out=sides[0])
    np.subtract((cum[seg_start + seg_n - 1] - before)[seg_at], sides[0], out=sides[1])
    imp = _impurity(sides, criterion)
    size_l, size_n = size_l[at].astype(np.float64), size_n[at].astype(np.float64)
    weighted = (size_l * imp[0] + (size_n - size_l) * imp[1]) / size_n
    full = np.full(m, np.inf)
    full[at] = weighted
    seg_best = np.minimum.reduceat(full, seg_start)
    # Each segment's first best candidate (-1 where it has none).
    tied = np.flatnonzero(weighted == seg_best[seg_at])
    lead = np.ones(tied.size, dtype=bool)
    lead[1:] = seg_at[tied[1:]] != seg_at[tied[:-1]]
    first = np.full(k * b, -1)
    first[seg_at[tied[lead]]] = tied[lead]
    seg_best, first = seg_best.reshape(k, b), first.reshape(k, b)
    score, pick = np.full(b, np.inf), np.zeros(b, dtype=np.intp)
    for j in range(k):
        better = seg_best[j] < score - 1e-12
        score[better] = seg_best[j, better]
        pick[better] = j
    hits = np.flatnonzero(score < np.array([p[4] for p in block]) - 1e-12)
    pick = pick[hits]
    c = first[pick, hits]
    feature = feats[hits, pick]
    lo, hi = xs[at[c]], xs[at[c] + 1]
    with np.errstate(over="ignore"):
        mid = 0.5 * (lo + hi)
    # A midpoint that rounds onto the upper value, or overflows, would send
    # every row left: split at the lower value instead.
    threshold = np.where((lo <= mid) & (mid < hi), mid, lo)
    slot = np.full(b, -1)
    slot[hits] = np.arange(hits.size)
    owner = slot[seg]
    moved, owner = flat_rows[owner >= 0], owner[owner >= 0]
    goes_left = xt[feature[owner] * n + src[moved]] <= threshold[owner]
    rows = np.concatenate([moved[goes_left], moved[~goes_left]])
    return (hits, feature, threshold, score[hits], sides[0][c], imp[:, c],
            rows, size_l[c].astype(np.intp))


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
        self.arena_: FlatForest | None = None  # the fitted tree, a one-tree arena
        self.n_classes_: int = 0
        self.n_features_: int = 0
        self._importance_raw: np.ndarray | None = None

    # -- fitting ---------------------------------------------------------

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        x, y = check_xy(x, y)
        n_classes = int(y.max()) + 1
        jobs = [(np.arange(y.size), y, ensure_rng(self.random_state))]
        return self._fitted(*_grow(self, x, jobs, n_classes)[0], n_classes)

    def _fitted(self, arena: FlatForest, importance: np.ndarray,
                n_classes: int) -> "DecisionTreeClassifier":
        """Install a grown tree (a forest grows its trees together)."""
        self.arena_ = arena
        self._importance_raw = importance
        self.n_classes_ = n_classes
        self.n_features_ = importance.size
        return self

    # -- inference ---------------------------------------------------------

    def _check_x(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, "arena_")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features_:
            raise ValueError(
                f"expected (n, {self.n_features_}) input, got shape {x.shape}"
            )
        return x

    def split_points(self, column: int) -> np.ndarray:
        """Sorted unique thresholds this tree splits ``column`` at: every
        value between two consecutive ones takes the same path."""
        check_fitted(self, "arena_")
        return self.arena_.split_points(column)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Batched class distributions, routed through the arena.

        Bit-identical to a walk of the arena one node per visit (the
        reference in ``tests/placement_oracle.py``, asserted by
        ``tests/property``): the same comparisons route every sample to
        the same leaf, whose stored distribution is copied out.
        """
        x = self._check_x(x)
        return self.arena_.predict_proba(x)

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
        check_fitted(self, "arena_")
        if feature_names is None:
            feature_names = [f"x[{i}]" for i in range(self.n_features_)]
        if len(feature_names) < self.n_features_:
            raise ValueError(
                f"need >= {self.n_features_} feature names, got {len(feature_names)}"
            )
        if class_names is None:
            class_names = [str(i) for i in range(self.n_classes_)]

        arena = self.arena_
        feature, threshold = arena.feature.tolist(), arena.threshold.tolist()
        left, right = arena.left.tolist(), arena.right.tolist()
        lines: list[str] = []

        def walk(i: int, depth: int) -> None:
            pad = "|   " * depth
            if feature[i] < 0:
                proba = arena.proba[i]
                winner = class_names[int(np.argmax(proba))]
                dist = ", ".join(f"{p:.2f}" for p in proba)
                lines.append(f"{pad}|-- class: {winner}  [{dist}]")
                return
            name = feature_names[feature[i]]
            lines.append(f"{pad}|-- {name} <= {threshold[i]:g}")
            walk(left[i], depth + 1)
            lines.append(f"{pad}|-- {name} >  {threshold[i]:g}")
            walk(right[i], depth + 1)

        walk(0, 0)
        return "\n".join(lines)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean decrease in impurity per feature, normalized to sum to 1.

        The paper's §V-B claim — "the most important parameters is the
        samples size and the state of the GPU" — is checkable directly
        from these on the scheduler dataset.
        """
        check_fitted(self, "arena_")
        total = self._importance_raw.sum()
        if total <= 0.0:
            return np.zeros_like(self._importance_raw)
        return self._importance_raw / total

    @property
    def depth_(self) -> int:
        """Realized depth of the fitted tree."""
        check_fitted(self, "arena_")
        return self.arena_.max_depth

    @property
    def n_leaves_(self) -> int:
        """Leaf count of the fitted tree."""
        check_fitted(self, "arena_")
        return int(np.count_nonzero(self.arena_.feature < 0))
