"""Tree arenas: the fitted state of trees and forests, and the scheduler
decision fast path."""

import numpy as np
import pytest

from repro.errors import NotFittedError
from repro.ml.flatten import FlatForest
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from tests.placement_oracle import forest_proba_recursive, tree_proba_recursive


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(120, 4))
    y = ((x[:, 0] + x[:, 1] > 0).astype(int) + (x[:, 2] > 0.5)).astype(int)
    return x, y


@pytest.fixture(scope="module")
def tree(data):
    x, y = data
    return DecisionTreeClassifier(max_depth=6, random_state=1).fit(x, y)


@pytest.fixture(scope="module")
def forest(data):
    x, y = data
    return RandomForestClassifier(
        n_estimators=7, max_depth=5, random_state=2
    ).fit(x, y)


class TestTreeArena:
    def test_structure(self, tree):
        flat = tree.arena_
        assert isinstance(flat, FlatForest)
        assert flat.roots.tolist() == [0]
        assert flat.n_nodes == flat.feature.shape[0]
        assert flat.proba.shape == (flat.n_nodes, 3)
        leaves = flat.feature < 0
        # Internal nodes link to in-range children; leaves link nowhere.
        assert np.all(flat.left[~leaves] >= 0)
        assert np.all(flat.right[~leaves] < flat.n_nodes)
        assert np.all(flat.left[leaves] == -1)
        assert np.all(flat.right[leaves] == -1)
        # Sentinel copies: leaf thresholds are +inf and self-loop.
        self_idx = np.arange(flat.n_nodes)
        assert np.all(np.isinf(flat._sthr[leaves]))
        assert np.all(flat._children[0::2][leaves] == self_idx[leaves])
        assert np.all(flat._children[1::2][leaves] == self_idx[leaves])

    def test_equivalent_to_recursive(self, tree, data):
        xq = np.random.default_rng(3).normal(size=(257, 4))
        assert np.array_equal(
            tree.predict_proba(xq), tree_proba_recursive(tree, xq)
        )

    def test_apply_lands_on_leaves(self, tree):
        flat = tree.arena_
        xq = np.random.default_rng(4).normal(size=(50, 4))
        leaves = flat.apply(xq)
        assert leaves.shape == (1, 50)
        assert np.all(flat.feature[leaves] < 0)

    def test_empty_batch(self, tree):
        out = tree.arena_.predict_proba(np.empty((0, 4)))
        assert out.shape == (0, 3)

    def test_unfitted_raises(self):
        tree = DecisionTreeClassifier()
        for read in (lambda: tree.split_points(0), lambda: tree.depth_,
                     lambda: tree.n_leaves_):
            with pytest.raises(NotFittedError):
                read()

    def test_fit_replaces_the_arena(self, data):
        x, y = data
        clf = DecisionTreeClassifier(max_depth=3, random_state=0).fit(x, y)
        first = clf.arena_
        clf.fit(x, y)
        assert clf.arena_ is not first

    def test_shape_mismatch_raises(self, tree):
        with pytest.raises(ValueError):
            tree.predict_proba(np.zeros((5, 9)))


class TestForestArena:
    def test_structure(self, forest):
        flat = forest.arena_
        assert isinstance(flat, FlatForest)
        assert flat.n_trees == 7
        assert flat.roots[0] == 0
        assert np.all(np.diff(flat.roots) > 0)
        assert flat.n_nodes == sum(t.n_leaves_ * 2 - 1 for t in forest.trees_)

    def test_joins_its_trees_arenas(self, forest):
        """Each tree's arena, in tree order, child links offset by its root."""
        flat = forest.arena_
        assert flat.roots.tolist() == np.cumsum(
            [0] + [t.arena_.n_nodes for t in forest.trees_[:-1]]).tolist()
        assert flat.n_nodes == sum(t.arena_.n_nodes for t in forest.trees_)
        assert flat.max_depth == max(t.depth_ for t in forest.trees_)
        for tree, root in zip(forest.trees_, flat.roots):
            arena = tree.arena_
            run = slice(root, root + arena.n_nodes)
            for name in ("feature", "threshold", "proba"):
                got, want = getattr(flat, name)[run], getattr(arena, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            for name in ("left", "right"):
                got, link = getattr(flat, name)[run], getattr(arena, name)
                assert got.dtype == np.int32
                assert got.tolist() == np.where(link >= 0, link + root, -1).tolist()

    def test_equivalent_to_recursive(self, forest):
        # Spans the chunk boundary (_CHUNK = 1024) and the compaction path.
        xq = np.random.default_rng(5).normal(size=(1100, 4))
        assert np.array_equal(
            forest.predict_proba(xq), forest_proba_recursive(forest, xq)
        )

    def test_apply_shape(self, forest):
        leaves = forest.arena_.apply(np.zeros((9, 4)))
        assert leaves.shape == (7, 9)
        flat = forest.arena_
        assert np.all(flat.feature[leaves] < 0)


def arena_thresholds(arena, i, column) -> set:
    """Every split threshold on ``column`` under node ``i``, by walking
    the child links."""
    if arena.feature[i] < 0:
        return set()
    own = {arena.threshold[i]} if arena.feature[i] == column else set()
    below = (arena_thresholds(arena, arena.left[i], column)
             | arena_thresholds(arena, arena.right[i], column))
    return own | below


class TestSplitPoints:
    @pytest.mark.parametrize("column", range(4))
    def test_tree_matches_arena_walk(self, tree, column):
        points = tree.split_points(column)
        assert points.tolist() == sorted(arena_thresholds(tree.arena_, 0, column))

    @pytest.mark.parametrize("column", range(4))
    def test_forest_is_the_union_over_trees(self, forest, column):
        union = set().union(*(arena_thresholds(t.arena_, 0, column) for t in forest.trees_))
        assert forest.split_points(column).tolist() == sorted(union)

    def test_values_between_points_share_a_path(self, forest):
        points = forest.split_points(0)
        assert len(points) >= 2
        lo, hi = points[0], points[1]
        xq = np.zeros((3, 4))
        xq[:, 0] = (np.nextafter(lo, np.inf), (lo + hi) / 2, hi)
        leaves = forest.arena_.apply(xq)
        assert np.all(leaves == leaves[:, :1])

    def test_unsplit_column_and_other_estimators(self, data):
        from repro.ml.knn import KNeighborsClassifier

        x, y = data
        stump = DecisionTreeClassifier(max_depth=1, random_state=0).fit(x, y)
        unused = [c for c in range(4) if c != stump.arena_.feature[0]]
        assert stump.split_points(unused[0]).size == 0
        assert KNeighborsClassifier().fit(x, y).split_points(0) is None
