"""Tree arenas: the fitted state of every tree model, and the scheduler's
decision fast path.

The paper's Table I argues the random forest wins partly because its
per-request decision cost is negligible next to dispatch.  A fitted tree
therefore never exists as a graph of Python node objects: the grower
(:func:`repro.ml.tree._grow`) writes each tree straight into contiguous
numpy arrays in preorder -- split feature, threshold, child indices and
per-node class distribution -- and a forest joins its trees' arrays into
one :class:`FlatForest` arena, offsetting the child links.  A single tree
is a one-tree arena.

Inference routes a whole batch iteratively: every step advances *all*
(tree, sample) lanes one level at once, so the Python loop count is the
depth, not the node count.  Per-tree probabilities are then accumulated
in tree order, so a forest's result is bit-identical to averaging its
trees' predictions one by one.

Leaves are routed self-looping (both children point back at the leaf,
behind an always-false "go right" comparison against ``+inf``), so a
lane that lands on a leaf stays put with no per-step bookkeeping.  When
most lanes have finished (leaf paths are much shorter than the depth
cap) the live ones are compacted so later levels gather only what is
still routing; large batches are additionally processed in ~1k-sample
chunks to keep the gather working set cache-resident.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FlatForest"]

#: Samples routed per chunk; keeps the (lanes x chunk) gather buffers in
#: cache for big batches without adding overhead for small ones.
_CHUNK = 1024

#: Compact the live lanes once fewer than this fraction are still routing.
_COMPACT_FRAC = 0.7


class FlatForest:
    """Fitted trees as one arena of contiguous arrays.

    ``feature[i] < 0`` marks node ``i`` as a leaf (its links are -1);
    internal nodes route a sample left iff ``x[feature[i]] <= threshold[i]``.
    ``proba[i]`` is the class distribution recorded at node ``i``, and
    tree ``t`` occupies the preorder run that starts at ``roots[t]``.
    """

    __slots__ = ("feature", "threshold", "left", "right", "proba", "roots",
                 "n_features", "max_depth", "_sfeat", "_sthr", "_children")

    def __init__(self, feature, threshold, left, right, proba, roots,
                 n_features: int, max_depth: int):
        self.feature = feature        # split feature; -1 marks a leaf
        self.threshold = threshold    # go left iff x[feature] <= threshold
        self.left = left              # child arena indices (-1 at leaves)
        self.right = right
        self.proba = proba            # per-node class distribution
        self.roots = roots            # arena index of each tree's root
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

    @classmethod
    def join(cls, arenas: list) -> "FlatForest":
        """One arena holding ``arenas`` in order, child links offset."""
        sizes = [a.n_nodes for a in arenas]
        starts = np.cumsum([0] + sizes[:-1])
        offset = np.repeat(starts, sizes).astype(np.int32)
        links = []
        for name in ("left", "right"):
            link = np.concatenate([getattr(a, name) for a in arenas])
            links.append(np.where(link >= 0, link + offset, link))
        return cls(
            feature=np.concatenate([a.feature for a in arenas]),
            threshold=np.concatenate([a.threshold for a in arenas]),
            left=links[0],
            right=links[1],
            proba=np.concatenate([a.proba for a in arenas]),
            roots=np.concatenate([a.roots + s for a, s in zip(arenas, starts)]),
            n_features=arenas[0].n_features,
            max_depth=max(a.max_depth for a in arenas),
        )

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    @property
    def n_trees(self) -> int:
        return int(self.roots.shape[0])

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

    def apply(self, x: np.ndarray) -> np.ndarray:
        """(n_trees, n_samples) leaf indices into the arena."""
        n = x.shape[0]
        out = np.empty((self.n_trees, n), dtype=np.intp)
        if n == 0:
            return out
        x = np.ascontiguousarray(x, dtype=np.float64)
        d = x.shape[1]
        xflat = x.reshape(-1)
        for s in range(0, n, _CHUNK):
            e = min(n, s + _CHUNK)
            shape = (self.n_trees, e - s)
            col = np.broadcast_to(np.arange(s, e, dtype=np.intp) * d, shape).reshape(-1)
            idx = np.broadcast_to(self.roots[:, None], shape).astype(np.intp).reshape(-1)
            out[:, s:e] = self._route(xflat, col, idx).reshape(shape)
        return out

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Soft-voted class distributions over the whole batch.

        Per-tree probabilities are accumulated in tree order (t=0, 1, ...),
        matching the reference loop's summation order exactly, so the
        result is bit-identical to averaging ``tree.predict_proba`` calls
        (and, for one tree, to its leaves' distributions: x / 1 == x).
        """
        leaves = self.proba[self.apply(x)]  # (T, n, C)
        out = leaves[0].copy()
        for t in range(1, leaves.shape[0]):
            out = out + leaves[t]
        return out / leaves.shape[0]
