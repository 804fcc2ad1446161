"""Estimator base: params, clone, validation."""

import numpy as np
import pytest

from repro.errors import NotFittedError
from repro.ml import (
    DecisionTreeClassifier,
    DummyClassifier,
    KNeighborsClassifier,
    LinearRegressionClassifier,
    LinearSVC,
    LogisticRegression,
    MLPClassifier,
    RandomForestClassifier,
)
from repro.ml.base import check_fitted, check_xy, clone


class TestParams:
    def test_get_params(self):
        est = DecisionTreeClassifier(max_depth=5, criterion="entropy")
        p = est.get_params()
        assert p["max_depth"] == 5
        assert p["criterion"] == "entropy"

    def test_set_params(self):
        est = DecisionTreeClassifier().set_params(max_depth=3)
        assert est.max_depth == 3

    def test_set_unknown_rejected(self):
        with pytest.raises(ValueError, match="max_depth"):
            DecisionTreeClassifier().set_params(depth=3)


class TestClone:
    def test_copies_params(self):
        est = RandomForestClassifier(n_estimators=7, max_depth=4)
        c = clone(est)
        assert c is not est
        assert c.n_estimators == 7
        assert c.max_depth == 4

    def test_clone_is_unfitted(self, rng):
        x = rng.standard_normal((20, 3))
        y = rng.integers(0, 2, 20)
        est = DecisionTreeClassifier().fit(x, y)
        c = clone(est)
        assert c.arena_ is None


class TestCheckXY:
    def test_valid(self, rng):
        x, y = check_xy(rng.standard_normal((5, 2)), np.zeros(5, dtype=int))
        assert x.dtype == np.float64

    def test_1d_x_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            check_xy(np.zeros(5), np.zeros(5))

    def test_2d_y_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            check_xy(np.zeros((5, 2)), np.zeros((5, 1)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            check_xy(np.zeros((5, 2)), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            check_xy(np.zeros((0, 2)), np.zeros(0))

    def test_infinite_feature_rejected_at_its_cell(self):
        with pytest.raises(ValueError, match=r"x\[3, 0\] = inf is not finite"):
            RandomForestClassifier(n_estimators=3).fit([[0], [1], [2], [np.inf]], [0, 1, 1, 0])

    def test_nan_feature_rejected_at_its_cell(self):
        x = np.zeros((4, 3))
        x[2, 1] = np.nan
        x[3, 0] = np.nan
        with pytest.raises(ValueError, match=r"x\[2, 1\] = nan is not finite"):
            DecisionTreeClassifier().fit(x, [0, 1, 0, 1])

    def test_fractional_labels_rejected_at_the_first(self):
        with pytest.raises(ValueError, match=r"integers, got y\[0\] = 0.5"):
            DecisionTreeClassifier().fit([[0.0], [1.0]], [0.5, 1.7])

    def test_non_numeric_labels_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            check_xy(np.zeros((2, 1)), np.array(["a", "b"]))

    def test_integral_float_labels_become_int64(self):
        _, y = check_xy(np.zeros((3, 1)), np.array([0.0, 2.0, 1.0]))
        assert y.dtype == np.int64 and y.tolist() == [0, 2, 1]

    @pytest.mark.parametrize("est", [
        DecisionTreeClassifier(), RandomForestClassifier(n_estimators=2),
        DummyClassifier(), KNeighborsClassifier(n_neighbors=1),
        LinearRegressionClassifier(), LogisticRegression(), LinearSVC(),
        MLPClassifier(epochs=1),
    ], ids=lambda est: type(est).__name__)
    def test_every_classifier_validates_its_pair(self, est):
        x = np.array([[0.0], [1.0], [2.0]])
        for bad_x, y, cell in ((x, [0.0, 1.5, 1.0], r"y\[1\]"),
                               (x, [0, -1, 1], r"y\[1\]"),
                               (np.array([[0.0], [np.nan], [2.0]]), [0, 1, 1], r"x\[1, 0\]")):
            with pytest.raises(ValueError, match=cell):
                est.fit(bad_x, y)


class TestScoreAndFitted:
    def test_score_is_accuracy(self, rng):
        x = rng.standard_normal((40, 2))
        y = (x[:, 0] > 0).astype(int)
        est = DecisionTreeClassifier().fit(x, y)
        assert est.score(x, y) > 0.95

    def test_check_fitted_raises(self):
        with pytest.raises(NotFittedError):
            check_fitted(DecisionTreeClassifier(), "arena_")
