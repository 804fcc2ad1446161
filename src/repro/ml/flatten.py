"""Flattened tree/forest inference: the scheduler's decision fast path.

The paper's Table I argues the random forest wins partly because its
per-request decision cost is negligible next to dispatch.  The reference
implementation walks Python ``_Node`` objects — one interpreter iteration
per tree node — which dominates wall-clock once a serving flood asks for
thousands of placements per virtual second.

:class:`FlatTree` flattens a fitted tree into contiguous numpy arrays
(split feature, threshold, packed child indices, per-node class
distribution) and routes a whole batch iteratively: every step advances
*all* samples one level at once, so the Python loop count is the tree
depth, not the node count.  :class:`FlatForest` concatenates every tree
of a forest into one arena and steps all (tree, sample) lanes
simultaneously; per-tree probabilities are then accumulated in tree order
so results are bit-identical to the reference sequential path.

Leaves are stored self-looping (both children point back at the leaf,
behind an always-false "go right" comparison against ``+inf``), so a
lane that lands on a leaf stays put with no per-step bookkeeping.  When
most lanes have finished (leaf paths are much shorter than the depth
cap) the live ones are compacted so later levels gather only what is
still routing; large batches are additionally processed in ~1k-sample
chunks to keep the gather working set cache-resident.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FlatTree", "FlatForest"]

#: Samples routed per chunk; keeps the (lanes x chunk) gather buffers in
#: cache for big batches without adding overhead for small ones.
_CHUNK = 1024

#: Compact the live lanes once fewer than this fraction are still routing.
_COMPACT_FRAC = 0.7


def _flatten_into(root, feature, threshold, left, right, proba) -> int:
    """Append ``root``'s subtree to the builder lists in preorder.

    Child links are absolute indices into the shared lists so several
    trees can occupy one arena.  Returns the subtree depth.  Iterative,
    so arbitrarily deep trees cannot hit the recursion limit.
    """
    max_depth = 0
    stack = [(root, -1, False, 0)]  # (node, parent index, is_right_child, depth)
    while stack:
        node, parent, is_right, depth = stack.pop()
        i = len(feature)
        if parent >= 0:
            (right if is_right else left)[parent] = i
        if depth > max_depth:
            max_depth = depth
        feature.append(node.feature)
        threshold.append(node.threshold)
        left.append(-1)
        right.append(-1)
        proba.append(node.proba)
        if node.feature >= 0:
            # Push right first so the left child pops (and lands) first.
            stack.append((node.right, i, True, depth + 1))
            stack.append((node.left, i, False, depth + 1))
    return max_depth


class _FlatBase:
    """Shared arena storage plus the sentinel-leaf routing kernel."""

    __slots__ = ("feature", "threshold", "left", "right", "proba",
                 "n_features", "max_depth", "_sfeat", "_sthr", "_children")

    def __init__(self, feature, threshold, left, right, proba,
                 n_features: int, max_depth: int):
        self.feature = feature        # split feature; -1 marks a leaf
        self.threshold = threshold    # go left iff x[feature] <= threshold
        self.left = left              # child arena indices (-1 at leaves)
        self.right = right
        self.proba = proba            # per-node class distribution
        self.n_features = int(n_features)
        self.max_depth = int(max_depth)
        # Routing copies: leaves self-loop behind an always-false "go
        # right" test, and both children interleave into one array so a
        # step needs a single gather at index 2*node + went_right.
        leaf = feature < 0
        self_idx = np.arange(feature.shape[0], dtype=np.intp)
        self._sfeat = np.where(leaf, 0, feature).astype(np.intp)
        self._sthr = np.where(leaf, np.inf, threshold)
        children = np.empty(2 * feature.shape[0], dtype=np.intp)
        children[0::2] = np.where(leaf, self_idx, left)
        children[1::2] = np.where(leaf, self_idx, right)
        self._children = children

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    def split_points(self, column: int) -> np.ndarray:
        """Sorted unique thresholds of every split on feature ``column``."""
        # Sort and drop repeats by hand: np.unique imports numpy.ma on
        # first use, a module a serving process otherwise never loads.
        points = np.sort(self.threshold[self.feature == column])
        keep = np.ones(points.size, dtype=bool)
        keep[1:] = points[1:] != points[:-1]
        return points[keep]

    def _route(self, xflat: np.ndarray, w_col: np.ndarray,
               w_idx: np.ndarray) -> np.ndarray:
        """Advance every lane of ``w_idx`` to its leaf, one level per step.

        ``xflat`` is the row-major sample block, ``w_col`` each lane's row
        offset into it (both 1-d, one entry per lane).  A leaf's sentinel
        threshold is ``+inf``, so the threshold gather doubles as the
        liveness test: once enough lanes have finished, the live ones are
        compacted and the finished leaf indices scattered to ``out``, so
        deep levels only pay for the paths that are actually that deep.
        """
        sfeat, sthr, children = self._sfeat, self._sthr, self._children
        lanes = w_idx.size
        out = np.empty(lanes, dtype=np.intp)
        positions = None          # out-positions of the live lanes (None = all)
        for _ in range(self.max_depth):
            tv = sthr[w_idx]
            active = tv != np.inf
            n_active = int(active.sum())
            if n_active == 0:
                break
            if n_active < _COMPACT_FRAC * w_idx.size:
                done = ~active
                if positions is None:
                    positions = np.arange(lanes, dtype=np.intp)
                out[positions[done]] = w_idx[done]
                positions = positions[active]
                w_idx = w_idx[active]
                w_col = w_col[active]
                tv = tv[active]
            go = xflat[sfeat[w_idx] + w_col] > tv
            w_idx = children[2 * w_idx + go]
        if positions is None:
            return w_idx
        out[positions] = w_idx
        return out

    def _apply_lanes(self, x: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Route ``x`` through the arena from each lane's start node.

        ``starts`` has shape () for a single tree or (n_trees,) for a
        forest; the result is (n,) or (n_trees, n) leaf indices.
        """
        n = x.shape[0]
        lanes = starts.shape + (n,)
        out = np.empty(lanes, dtype=np.intp)
        if n == 0:
            return out
        x = np.ascontiguousarray(x, dtype=np.float64)
        d = x.shape[1]
        xflat = x.reshape(-1)
        for s in range(0, n, _CHUNK):
            e = min(n, s + _CHUNK)
            shape = starts.shape + (e - s,)
            col = np.broadcast_to(
                np.arange(s, e, dtype=np.intp) * d, shape
            ).reshape(-1)
            idx = np.broadcast_to(starts[..., None], shape)
            idx = idx.astype(np.intp).reshape(-1)
            out[..., s:e] = self._route(xflat, col, idx).reshape(shape)
        return out


class FlatTree(_FlatBase):
    """One fitted decision tree as contiguous arrays.

    ``feature[i] < 0`` marks node ``i`` as a leaf; internal nodes route a
    sample left iff ``x[feature[i]] <= threshold[i]``.  ``proba[i]`` is
    the class distribution recorded at node ``i``.
    """

    @classmethod
    def from_tree(cls, tree) -> "FlatTree":
        """Flatten a fitted :class:`~repro.ml.tree.DecisionTreeClassifier`."""
        if tree.root_ is None:
            raise ValueError("cannot flatten an unfitted tree")
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        proba: list[np.ndarray] = []
        depth = _flatten_into(tree.root_, feature, threshold, left, right, proba)
        return cls(
            feature=np.asarray(feature, dtype=np.int32),
            threshold=np.asarray(threshold, dtype=np.float64),
            left=np.asarray(left, dtype=np.int32),
            right=np.asarray(right, dtype=np.int32),
            proba=np.vstack(proba),
            n_features=tree.n_features_,
            max_depth=depth,
        )

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Leaf index reached by every row of ``x`` (depth-many steps)."""
        return self._apply_lanes(x, np.zeros((), dtype=np.intp))

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Batched class distributions, bit-identical to the node walk."""
        return self.proba[self.apply(x)]


class FlatForest(_FlatBase):
    """Every tree of a forest in one arena, evaluated simultaneously.

    One routing step advances all (tree, sample) lanes a level; the loop
    runs ``max(tree depth)`` times total instead of once per node per
    tree.
    """

    __slots__ = ("roots",)

    def __init__(self, feature, threshold, left, right, proba, roots,
                 n_features: int, max_depth: int):
        super().__init__(feature, threshold, left, right, proba,
                         n_features, max_depth)
        self.roots = roots

    @classmethod
    def from_trees(cls, trees) -> "FlatForest":
        """Flatten fitted trees (e.g. ``RandomForestClassifier.trees_``)."""
        if not trees:
            raise ValueError("cannot flatten an empty forest")
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        proba: list[np.ndarray] = []
        roots: list[int] = []
        max_depth = 0
        for tree in trees:
            if tree.root_ is None:
                raise ValueError("cannot flatten an unfitted tree")
            roots.append(len(feature))
            depth = _flatten_into(tree.root_, feature, threshold, left, right,
                                  proba)
            if depth > max_depth:
                max_depth = depth
        return cls(
            feature=np.asarray(feature, dtype=np.int32),
            threshold=np.asarray(threshold, dtype=np.float64),
            left=np.asarray(left, dtype=np.int32),
            right=np.asarray(right, dtype=np.int32),
            proba=np.vstack(proba),
            roots=np.asarray(roots, dtype=np.intp),
            n_features=trees[0].n_features_,
            max_depth=max_depth,
        )

    @property
    def n_trees(self) -> int:
        return int(self.roots.shape[0])

    def apply(self, x: np.ndarray) -> np.ndarray:
        """(n_trees, n_samples) leaf indices into the shared arena."""
        return self._apply_lanes(x, self.roots)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Soft-voted class distributions over the whole batch.

        Per-tree probabilities are accumulated in tree order (t=0, 1, ...),
        matching the reference loop's summation order exactly, so the
        result is bit-identical to averaging ``tree.predict_proba`` calls.
        """
        leaves = self.proba[self.apply(x)]  # (T, n, C)
        out = leaves[0].copy()
        for t in range(1, leaves.shape[0]):
            out = out + leaves[t]
        return out / leaves.shape[0]
