"""Decision tree: splits, constraints, generalization."""

import numpy as np
import pytest

from repro.errors import NotFittedError
from repro.ml.tree import DecisionTreeClassifier, _impurity


def xor_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(n, 2))
    y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(int)
    return x, y


class TestImpurity:
    def test_gini_pure(self):
        assert _impurity(np.array([[10.0, 0.0]]), "gini")[0] == pytest.approx(0.0)

    def test_gini_uniform(self):
        assert _impurity(np.array([[5.0, 5.0]]), "gini")[0] == pytest.approx(0.5)

    def test_entropy_uniform_binary(self):
        assert _impurity(np.array([[5.0, 5.0]]), "entropy")[0] == pytest.approx(1.0)

    def test_entropy_pure(self):
        assert _impurity(np.array([[7.0, 0.0]]), "entropy")[0] == pytest.approx(0.0)

    def test_unknown_criterion(self):
        with pytest.raises(ValueError):
            _impurity(np.array([[1.0, 1.0]]), "mse")


class TestFitPredict:
    def test_memorizes_separable_data(self):
        x, y = xor_data()
        tree = DecisionTreeClassifier().fit(x, y)
        assert tree.score(x, y) == 1.0

    def test_generalizes_xor(self):
        x, y = xor_data(400, seed=1)
        tree = DecisionTreeClassifier(max_depth=6).fit(x[:300], y[:300])
        assert tree.score(x[300:], y[300:]) > 0.9

    def test_predict_proba_rows_sum_to_one(self):
        x, y = xor_data()
        tree = DecisionTreeClassifier(max_depth=3).fit(x, y)
        p = tree.predict_proba(x[:10])
        np.testing.assert_allclose(p.sum(axis=1), 1.0)

    def test_single_class_data(self):
        x = np.random.default_rng(0).standard_normal((10, 2))
        tree = DecisionTreeClassifier().fit(x, np.zeros(10, dtype=int))
        assert tree.n_leaves_ == 1
        assert (tree.predict(x) == 0).all()

    def test_unfitted_predict_rejected(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict(np.zeros((1, 2)))

    def test_wrong_feature_count_rejected(self):
        x, y = xor_data()
        tree = DecisionTreeClassifier().fit(x, y)
        with pytest.raises(ValueError):
            tree.predict(np.zeros((1, 5)))

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((4, 1)), np.array([-1, 0, 0, 1]))


class TestConstraints:
    def test_max_depth_respected(self):
        x, y = xor_data(300)
        tree = DecisionTreeClassifier(max_depth=2).fit(x, y)
        assert tree.depth_ <= 2

    def test_depth_one_is_stump(self):
        x, y = xor_data()
        tree = DecisionTreeClassifier(max_depth=1).fit(x, y)
        assert tree.n_leaves_ <= 2

    def test_min_samples_leaf(self):
        x, y = xor_data(100)
        tree = DecisionTreeClassifier(min_samples_leaf=20).fit(x, y)

        arena = tree.arena_

        def leaf_sizes(i, x_sub, y_sub):
            if arena.feature[i] < 0:
                return [len(y_sub)]
            mask = x_sub[:, arena.feature[i]] <= arena.threshold[i]
            return leaf_sizes(arena.left[i], x_sub[mask], y_sub[mask]) + leaf_sizes(
                arena.right[i], x_sub[~mask], y_sub[~mask]
            )

        assert min(leaf_sizes(0, x, y)) >= 20

    def test_entropy_criterion_works(self):
        x, y = xor_data()
        tree = DecisionTreeClassifier(criterion="entropy").fit(x, y)
        assert tree.score(x, y) == 1.0

    def test_invalid_criterion(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(criterion="variance")

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_depth=0)

    def test_max_features_subsampling_deterministic(self):
        x, y = xor_data(150)
        a = DecisionTreeClassifier(max_features=1, random_state=3).fit(x, y)
        b = DecisionTreeClassifier(max_features=1, random_state=3).fit(x, y)
        np.testing.assert_array_equal(a.predict(x), b.predict(x))

    def test_max_features_out_of_range(self):
        x, y = xor_data(50)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_features=10).fit(x, y)

    def test_constant_features_yield_leaf(self):
        x = np.ones((20, 3))
        y = np.array([0, 1] * 10)
        tree = DecisionTreeClassifier().fit(x, y)
        assert tree.n_leaves_ == 1
