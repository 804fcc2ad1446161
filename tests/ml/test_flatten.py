"""Flattened tree/forest inference (the scheduler decision fast path)."""

import numpy as np
import pytest

from repro.ml.flatten import FlatForest, FlatTree
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


class TestFlatTree:
    def test_structure(self, tree):
        flat = tree.flatten()
        assert isinstance(flat, FlatTree)
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
        flat = tree.flatten()
        xq = np.random.default_rng(4).normal(size=(50, 4))
        leaves = flat.apply(xq)
        assert leaves.shape == (50,)
        assert np.all(flat.feature[leaves] < 0)

    def test_empty_batch(self, tree):
        out = tree.flatten().predict_proba(np.empty((0, 4)))
        assert out.shape == (0, 3)

    def test_unfitted_raises(self):
        with pytest.raises(ValueError, match="unfitted"):
            FlatTree.from_tree(DecisionTreeClassifier())

    def test_flat_cache_invalidated_by_fit(self, data):
        x, y = data
        clf = DecisionTreeClassifier(max_depth=3, random_state=0).fit(x, y)
        first = clf.flatten()
        assert clf.flatten() is first
        clf.fit(x, y)
        assert clf.flatten() is not first

    def test_shape_mismatch_raises(self, tree):
        with pytest.raises(ValueError):
            tree.predict_proba(np.zeros((5, 9)))


class TestFlatForest:
    def test_structure(self, forest):
        flat = forest.flatten()
        assert isinstance(flat, FlatForest)
        assert flat.n_trees == 7
        assert flat.roots[0] == 0
        assert np.all(np.diff(flat.roots) > 0)
        assert flat.n_nodes == sum(t.n_leaves_ * 2 - 1 for t in forest.trees_)

    def test_equivalent_to_recursive(self, forest):
        # Spans the chunk boundary (_CHUNK = 1024) and the compaction path.
        xq = np.random.default_rng(5).normal(size=(1100, 4))
        assert np.array_equal(
            forest.predict_proba(xq), forest_proba_recursive(forest, xq)
        )

    def test_apply_shape(self, forest):
        leaves = forest.flatten().apply(np.zeros((9, 4)))
        assert leaves.shape == (7, 9)
        flat = forest.flatten()
        assert np.all(flat.feature[leaves] < 0)

    def test_empty_forest_raises(self):
        with pytest.raises(ValueError, match="empty"):
            FlatForest.from_trees([])

    def test_unfitted_member_raises(self):
        with pytest.raises(ValueError, match="unfitted"):
            FlatForest.from_trees([DecisionTreeClassifier()])


def node_thresholds(node, column) -> set:
    """Every split threshold on ``column`` in a ``_Node`` graph."""
    if node.feature < 0:
        return set()
    own = {node.threshold} if node.feature == column else set()
    below = node_thresholds(node.left, column) | node_thresholds(node.right, column)
    return own | below


class TestSplitPoints:
    @pytest.mark.parametrize("column", range(4))
    def test_tree_matches_node_graph(self, tree, column):
        points = tree.split_points(column)
        assert points.tolist() == sorted(node_thresholds(tree.root_, column))

    @pytest.mark.parametrize("column", range(4))
    def test_forest_is_the_union_over_trees(self, forest, column):
        union = set().union(*(node_thresholds(t.root_, column) for t in forest.trees_))
        assert forest.split_points(column).tolist() == sorted(union)

    def test_values_between_points_share_a_path(self, forest):
        points = forest.split_points(0)
        assert len(points) >= 2
        lo, hi = points[0], points[1]
        xq = np.zeros((3, 4))
        xq[:, 0] = (np.nextafter(lo, np.inf), (lo + hi) / 2, hi)
        leaves = forest.flatten().apply(xq)
        assert np.all(leaves == leaves[:, :1])

    def test_unsplit_column_and_other_estimators(self, data):
        from repro.ml.knn import KNeighborsClassifier

        x, y = data
        stump = DecisionTreeClassifier(max_depth=1, random_state=0).fit(x, y)
        unused = [c for c in range(4) if c != stump.root_.feature]
        assert stump.split_points(unused[0]).size == 0
        assert KNeighborsClassifier().fit(x, y).split_points(0) is None
