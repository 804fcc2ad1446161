"""Device predictors."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulerError
from repro.ml import DecisionTreeClassifier
from repro.ml.base import clone
from repro.ml.dummy import DummyClassifier
from repro.ml.forest import RandomForestClassifier
from repro.nn.zoo import MNIST_DEEP, MNIST_SMALL, SIMPLE
from repro.sched.dataset import SchedulerDataset, generate_dataset
from repro.sched.features import FEATURE_NAMES, encode_point
from repro.sched.persistence import load_predictor, save_predictor
from repro.sched.policies import Policy
from repro.sched.predictor import DevicePredictor, default_estimator


class TestFit:
    def test_policy_mismatch_rejected(self, throughput_dataset):
        pred = DevicePredictor(Policy.ENERGY)
        with pytest.raises(SchedulerError, match="policy"):
            pred.fit(throughput_dataset)

    def test_unfitted_use_rejected(self):
        with pytest.raises(SchedulerError, match="fit"):
            DevicePredictor("throughput").predict_device(SIMPLE, 8, "warm")

    def test_custom_estimator(self, small_throughput_dataset):
        pred = DevicePredictor("throughput", DecisionTreeClassifier(max_depth=8))
        pred.fit(small_throughput_dataset)
        assert pred.predict_device(SIMPLE, 8, "warm") in ("cpu", "dgpu", "igpu")

    def test_refit_uses_fresh_clone(self, small_throughput_dataset):
        pred = DevicePredictor("throughput")
        est_before = pred.estimator
        pred.fit(small_throughput_dataset)
        assert pred.estimator is not est_before


class TestPredictions:
    def test_training_points_mostly_correct(self, trained_predictors, throughput_dataset):
        pred = trained_predictors[Policy.THROUGHPUT]
        acc = np.mean(pred.predict_batch(throughput_dataset.x) == throughput_dataset.y)
        assert acc > 0.95  # in-sample

    def test_known_crossover_simple(self, trained_predictors):
        """Fig. 3(a): CPU wins small batches on the Simple model."""
        pred = trained_predictors[Policy.THROUGHPUT]
        assert pred.predict_device(SIMPLE, 8, "warm") == "cpu"

    def test_known_crossover_deep_large(self, trained_predictors):
        pred = trained_predictors[Policy.THROUGHPUT]
        assert pred.predict_device(MNIST_DEEP, 1 << 16, "warm") == "dgpu"

    def test_energy_small_batch_prefers_igpu(self, trained_predictors):
        pred = trained_predictors[Policy.ENERGY]
        assert pred.predict_device(MNIST_DEEP, 4, "warm") == "igpu"

    def test_index_and_device_agree(self, trained_predictors):
        pred = trained_predictors[Policy.THROUGHPUT]
        idx = pred.predict_index(SIMPLE, 64, "idle")
        assert pred.predict_device(SIMPLE, 64, "idle") == ("cpu", "dgpu", "igpu")[idx]

    def test_batch_prediction_matches_single(self, trained_predictors):
        pred = trained_predictors[Policy.THROUGHPUT]
        feats = np.vstack(
            [encode_point(SIMPLE, b, "warm") for b in (1, 64, 4096)]
        )
        batch_preds = pred.predict_batch(feats)
        singles = [pred.predict_index(SIMPLE, b, "warm") for b in (1, 64, 4096)]
        np.testing.assert_array_equal(batch_preds, singles)


class TestDefaultEstimator:
    def test_is_tuned_forest(self):
        est = default_estimator()
        assert est.n_estimators == 50
        assert est.criterion == "entropy"
        assert est.max_depth == 10


def equal_copy(dataset: SchedulerDataset, **changes) -> SchedulerDataset:
    """A new dataset object with copied (or replaced) arrays."""
    fields = {"x": dataset.x.copy(), "y": dataset.y.copy(), **changes}
    return dataclasses.replace(dataset, **fields)


def small_forest(random_state=5) -> RandomForestClassifier:
    return RandomForestClassifier(
        n_estimators=4, max_depth=6, random_state=random_state
    )


def probe_rows(dataset: SchedulerDataset) -> np.ndarray:
    """Training rows plus cells the training grid never saw."""
    extra = [
        encode_point(spec, batch, state)
        for spec in (SIMPLE, MNIST_SMALL)
        for batch in (3, 200, 5000, 100_000)
        for state in ("warm", "idle")
    ]
    return np.vstack([dataset.x, *extra])


class TestFitReuse:
    """A fit on the last fit's inputs keeps the fitted forest."""

    def test_equal_refit_keeps_forest_generation_bumps(self, online_dataset):
        pred = DevicePredictor(Policy.THROUGHPUT).fit(online_dataset)
        forest = pred.estimator
        assert pred.cell(SIMPLE, 64, "warm") is not None
        generation = pred.fit_generation

        pred.fit(equal_copy(online_dataset))

        assert pred.estimator is forest
        assert pred.fit_generation == generation + 1
        assert pred.n_fit_reuses == 1
        assert pred.fitted

        def fail(_x):
            raise AssertionError("the cell memo should have survived")

        pred.estimator.predict_proba = fail
        assert pred.cell(SIMPLE, 64, "warm") is not None
        del pred.estimator.predict_proba

        fresh = DevicePredictor(Policy.THROUGHPUT).fit(online_dataset)
        rows = probe_rows(online_dataset)
        np.testing.assert_array_equal(
            pred.estimator.predict_proba(rows), fresh.estimator.predict_proba(rows)
        )

    @pytest.mark.parametrize("change", ["x", "y", "y_dtype", "param", "class"])
    def test_any_change_retrains(self, online_dataset, change):
        pred = DevicePredictor(Policy.THROUGHPUT, small_forest()).fit(
            online_dataset
        )
        forest = pred.estimator
        dataset = equal_copy(online_dataset)
        if change == "x":
            dataset.x[3, 0] = np.nextafter(dataset.x[3, 0], np.inf)
        elif change == "y":
            dataset.y[0] = (dataset.y[0] + 1) % 3
        elif change == "y_dtype":
            dataset = equal_copy(online_dataset, y=online_dataset.y.astype(np.int32))
        elif change == "param":
            pred.estimator.set_params(max_depth=5)
        else:
            pred.estimator = DecisionTreeClassifier(max_depth=6)

        pred.fit(dataset)

        assert pred.n_fit_reuses == 0
        assert pred.estimator is not forest
        if change == "class":
            assert isinstance(pred.estimator, DecisionTreeClassifier)
        reference = DevicePredictor(Policy.THROUGHPUT, clone(pred.estimator))
        reference.fit(dataset)
        rows = probe_rows(online_dataset)
        np.testing.assert_array_equal(
            pred.estimator.predict_proba(rows),
            reference.estimator.predict_proba(rows),
        )

    def test_generator_seed_always_retrains(self, online_dataset):
        seeded = small_forest(np.random.default_rng(11))
        pred = DevicePredictor(Policy.THROUGHPUT, clone(seeded))
        pred.fit(online_dataset)
        first = pred.estimator
        pred.fit(online_dataset)

        assert pred.n_fit_reuses == 0
        assert pred.estimator is not first
        # Clone-every-fit: each fit clones the previous estimator, whose
        # generator the previous fit advanced.
        expected_first = clone(seeded)
        expected_first.fit(online_dataset.x, online_dataset.y)
        expected_second = clone(expected_first)
        expected_second.fit(online_dataset.x, online_dataset.y)
        rows = probe_rows(online_dataset)
        np.testing.assert_array_equal(
            first.predict_proba(rows), expected_first.predict_proba(rows)
        )
        np.testing.assert_array_equal(
            pred.estimator.predict_proba(rows),
            expected_second.predict_proba(rows),
        )

    def test_stateful_estimator_always_retrains(self, online_dataset):
        # A uniform dummy draws its predictions from a generator the fit
        # resets: keeping it would continue that stream instead.
        pred = DevicePredictor(Policy.THROUGHPUT, DummyClassifier(random_state=3))
        pred.fit(online_dataset)
        first = pred.estimator
        pred.fit(online_dataset)
        assert pred.n_fit_reuses == 0
        assert pred.estimator is not first

    def test_loaded_predictor_retrains_on_first_fit(self, online_dataset, tmp_path):
        path = tmp_path / "pred.pkl"
        save_predictor(
            DevicePredictor(Policy.THROUGHPUT, small_forest()).fit(online_dataset),
            path,
        )
        loaded = load_predictor(path)
        forest = loaded.estimator
        loaded.fit(online_dataset)
        assert loaded.n_fit_reuses == 0
        assert loaded.estimator is not forest
        loaded.fit(online_dataset)
        assert loaded.n_fit_reuses == 1


datasets = st.integers(min_value=2, max_value=10).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.lists(
                st.sampled_from((0.0, 1.0, 2.5, 4.0)),
                min_size=len(FEATURE_NAMES),
                max_size=len(FEATURE_NAMES),
            ),
            min_size=n,
            max_size=n,
        ),
        st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n),
    )
)


def as_dataset(rows, labels) -> SchedulerDataset:
    return SchedulerDataset(
        policy=Policy.THROUGHPUT,
        x=np.asarray(rows, dtype=np.float64),
        y=np.asarray(labels, dtype=np.int64),
    )


@settings(max_examples=40, deadline=None)
@given(
    first=datasets,
    change=st.sampled_from(("none", "x", "y", "append")),
    where=st.integers(min_value=0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_refit_matches_a_fresh_fit(first, change, where, seed):
    """Fitting A then B scores exactly like a fresh fit on B."""
    a = as_dataset(*first)
    rows, labels = [list(r) for r in first[0]], list(first[1])
    i = where % len(rows)
    if change == "x":
        rows[i][where % len(FEATURE_NAMES)] += 1.0
    elif change == "y":
        labels[i] = (labels[i] + 1) % 3
    elif change == "append":
        rows.append(rows[i])
        labels.append((labels[i] + 1) % 3)
    b = as_dataset(rows, labels)

    refit = DevicePredictor(Policy.THROUGHPUT, small_forest(seed)).fit(a).fit(b)
    fresh = DevicePredictor(Policy.THROUGHPUT, small_forest(seed)).fit(b)

    assert refit.n_fit_reuses == (1 if change == "none" else 0)
    probe = np.vstack([a.x, b.x])
    assert (
        refit.estimator.predict_proba(probe).tobytes()
        == fresh.estimator.predict_proba(probe).tobytes()
    )
