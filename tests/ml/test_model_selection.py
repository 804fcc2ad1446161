"""Model selection: stratified k-fold, CV, grid search, nested CV."""

import numpy as np
import pytest

from repro.ml.model_selection import (
    GridSearchCV,
    StratifiedKFold,
    cross_val_score,
    nested_cross_validation,
    train_test_split,
)
from repro.ml.tree import DecisionTreeClassifier


def imbalanced(n=200, seed=0):
    """~30/40/30 class mix like the scheduler dataset (§V-B)."""
    rng = np.random.default_rng(seed)
    y = rng.choice(3, size=n, p=[0.3, 0.4, 0.3])
    centers = np.array([[0, 0], [4, 0], [0, 4]], dtype=float)
    return centers[y] + rng.standard_normal((n, 2)), y


class TestStratifiedKFold:
    def test_folds_partition_everything(self):
        x, y = imbalanced()
        cv = StratifiedKFold(5, random_state=0)
        seen = np.concatenate([test for _, test in cv.split(x, y)])
        assert sorted(seen) == list(range(len(y)))

    def test_train_test_disjoint(self):
        x, y = imbalanced()
        for train, test in StratifiedKFold(4, random_state=0).split(x, y):
            assert not set(train) & set(test)

    def test_class_proportions_preserved(self):
        x, y = imbalanced(500, seed=1)
        overall = np.bincount(y) / len(y)
        for _, test in StratifiedKFold(5, random_state=0).split(x, y):
            fold = np.bincount(y[test], minlength=3) / len(test)
            np.testing.assert_allclose(fold, overall, atol=0.05)

    def test_too_few_samples_per_class(self):
        y = np.array([0, 0, 0, 1])
        with pytest.raises(ValueError, match="class"):
            list(StratifiedKFold(3).split(np.zeros((4, 1)), y))

    def test_invalid_splits(self):
        with pytest.raises(ValueError):
            StratifiedKFold(1)

    def test_deterministic_with_seed(self):
        x, y = imbalanced()
        a = [t.tolist() for _, t in StratifiedKFold(3, random_state=5).split(x, y)]
        b = [t.tolist() for _, t in StratifiedKFold(3, random_state=5).split(x, y)]
        assert a == b


class TestTrainTestSplit:
    def test_sizes(self):
        x, y = imbalanced(100)
        xt, xv, yt, yv = train_test_split(x, y, test_size=0.25, random_state=0)
        assert len(yv) == pytest.approx(25, abs=3)
        assert len(yt) + len(yv) == 100

    def test_stratified_keeps_all_classes(self):
        x, y = imbalanced(60)
        _, _, _, yv = train_test_split(x, y, test_size=0.2, random_state=0)
        assert set(yv) == {0, 1, 2}

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((4, 1)), np.zeros(4), test_size=1.5)


class TestCrossValScore:
    def test_scores_high_on_separable(self):
        x, y = imbalanced(300, seed=2)
        scores = cross_val_score(DecisionTreeClassifier(max_depth=5), x, y, cv=5)
        assert scores.shape == (5,)
        assert scores.mean() > 0.85

    def test_f1_scoring(self):
        x, y = imbalanced(300)
        scores = cross_val_score(
            DecisionTreeClassifier(max_depth=5), x, y, cv=3, scoring="f1"
        )
        assert np.all((0 <= scores) & (scores <= 1))

    def test_custom_callable_scorer(self):
        x, y = imbalanced(150)
        scores = cross_val_score(
            DecisionTreeClassifier(max_depth=3), x, y, cv=3,
            scoring=lambda yt, yp: 0.5,
        )
        np.testing.assert_allclose(scores, 0.5)

    def test_unknown_scorer(self):
        x, y = imbalanced(60)
        with pytest.raises(ValueError):
            cross_val_score(DecisionTreeClassifier(), x, y, cv=3, scoring="auc")

    def test_estimator_not_mutated(self):
        x, y = imbalanced(90)
        est = DecisionTreeClassifier(max_depth=3)
        cross_val_score(est, x, y, cv=3)
        assert est.arena_ is None


class TestGridSearch:
    def test_finds_better_depth(self):
        x, y = imbalanced(300, seed=3)
        gs = GridSearchCV(
            DecisionTreeClassifier(),
            {"max_depth": [1, 6]},
            cv=3,
            scoring="accuracy",
        ).fit(x, y)
        assert gs.best_params_["max_depth"] == 6
        assert len(gs.results_) == 2

    def test_best_estimator_fitted(self):
        x, y = imbalanced(150)
        gs = GridSearchCV(DecisionTreeClassifier(), {"max_depth": [2, 4]}, cv=3).fit(x, y)
        assert gs.predict(x).shape == (150,)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            GridSearchCV(DecisionTreeClassifier(), {})

    def test_predict_before_fit(self):
        gs = GridSearchCV(DecisionTreeClassifier(), {"max_depth": [2]})
        with pytest.raises(RuntimeError):
            gs.predict(np.zeros((1, 2)))


class TestNestedCV:
    def test_structure(self):
        x, y = imbalanced(200, seed=4)
        result = nested_cross_validation(
            DecisionTreeClassifier(),
            x,
            y,
            param_grid={"max_depth": [2, 5]},
            outer_cv=StratifiedKFold(3, random_state=1),
            inner_cv=StratifiedKFold(2, random_state=2),
        )
        assert len(result.fold_scores) == 3
        assert len(result.fold_params) == 3
        assert result.y_true.shape == (200,)
        assert result.y_pred.shape == (200,)

    def test_mean_and_std(self):
        x, y = imbalanced(200, seed=5)
        result = nested_cross_validation(
            DecisionTreeClassifier(), x, y, {"max_depth": [4]},
            outer_cv=StratifiedKFold(3, random_state=1), inner_cv=2,
        )
        assert 0 <= result.mean_score <= 1
        assert result.std_score >= 0

    def test_predictions_out_of_fold(self):
        """Pooled predictions must cover every sample exactly once."""
        x, y = imbalanced(120, seed=6)
        result = nested_cross_validation(
            DecisionTreeClassifier(), x, y, {"max_depth": [3]},
            outer_cv=StratifiedKFold(4, random_state=0), inner_cv=2,
        )
        # y_true is a permutation of y
        np.testing.assert_array_equal(np.sort(result.y_true), np.sort(y))
