"""Scheduler artifact persistence."""

import numpy as np
import pytest

from repro.errors import SchedulerError
from repro.nn.zoo import MNIST_SMALL, SIMPLE, UNSEEN_SPECS
from repro.sched.persistence import (
    load_dataset,
    load_predictor,
    save_dataset,
    save_predictor,
)
from repro.sched.predictor import DevicePredictor, batch_interval


class TestDatasetRoundtrip:
    def test_exact(self, small_throughput_dataset, tmp_path):
        path = tmp_path / "ds.npz"
        save_dataset(small_throughput_dataset, path)
        loaded = load_dataset(path)
        assert loaded.policy is small_throughput_dataset.policy
        np.testing.assert_array_equal(loaded.x, small_throughput_dataset.x)
        np.testing.assert_array_equal(loaded.y, small_throughput_dataset.y)
        assert loaded.specs == small_throughput_dataset.specs
        assert loaded.gpu_states == small_throughput_dataset.gpu_states
        np.testing.assert_array_equal(
            loaded.batches, small_throughput_dataset.batches
        )

    def test_loaded_dataset_trains(self, small_throughput_dataset, tmp_path):
        path = tmp_path / "ds.npz"
        save_dataset(small_throughput_dataset, path)
        predictor = DevicePredictor("throughput").fit(load_dataset(path))
        assert predictor.predict_device(SIMPLE, 8, "warm") in ("cpu", "dgpu", "igpu")

    def test_version_guard(self, small_throughput_dataset, tmp_path):
        path = tmp_path / "ds.npz"
        save_dataset(small_throughput_dataset, path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["version"] = np.int64(99)
        np.savez(path, **payload)
        with pytest.raises(SchedulerError, match="v99"):
            load_dataset(path)


class TestPredictorRoundtrip:
    def test_predictions_identical(self, small_throughput_dataset, tmp_path):
        predictor = DevicePredictor("throughput").fit(small_throughput_dataset)
        path = tmp_path / "rf.pkl"
        save_predictor(predictor, path)
        loaded = load_predictor(path)
        assert loaded.policy is predictor.policy
        for spec in (SIMPLE, MNIST_SMALL, *UNSEEN_SPECS[:1]):
            for batch in (8, 4096, 1 << 16):
                for state in ("warm", "idle"):
                    assert loaded.predict_device(spec, batch, state) == (
                        predictor.predict_device(spec, batch, state)
                    )

    def test_loaded_predictor_keys_cells_by_interval(
        self, small_throughput_dataset, tmp_path
    ):
        """A loaded predictor never runs ``fit``: its batch cuts still come
        from the loaded forest, it primes one row per interval, and its
        cells rank exactly as the original's."""
        predictor = DevicePredictor("throughput").fit(small_throughput_dataset)
        path = tmp_path / "rf.pkl"
        save_predictor(predictor, path)
        loaded = load_predictor(path)
        assert loaded.fit_generation == 0
        cuts = loaded.batch_cuts()
        assert cuts is not None and cuts == predictor.batch_cuts()

        rows = []
        forest = loaded.estimator.predict_proba
        loaded.estimator.predict_proba = lambda x: rows.append(len(x)) or forest(x)
        edges = {int(c) + d for c in cuts for d in (0, 1)}
        batches = sorted({1, 2, 3, 300_000} | edges)
        cells = [
            (spec, batch, state)
            for spec in (SIMPLE, MNIST_SMALL)
            for batch in batches
            for state in ("warm", "idle")
        ]
        primed = loaded.prime_cells(cells)
        intervals = {
            (spec.name, batch_interval(cuts, batch), state)
            for spec, batch, state in cells
        }
        assert primed == sum(rows) == len(intervals) < len(cells)
        for spec, batch, state in cells:
            proba, order = loaded.cell(spec, batch, state)
            original, original_order = predictor.cell(spec, batch, state)
            assert order == original_order
            assert proba.tobytes() == original.tobytes()
        assert len(rows) == 1                  # every cell was primed

    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(SchedulerError, match="unfitted"):
            save_predictor(DevicePredictor("energy"), tmp_path / "x.pkl")

    def test_version_guard(self, small_throughput_dataset, tmp_path):
        import pickle

        path = tmp_path / "rf.pkl"
        predictor = DevicePredictor("throughput").fit(small_throughput_dataset)
        save_predictor(predictor, path)
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        payload["version"] = 42
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)
        with pytest.raises(SchedulerError, match="v42"):
            load_predictor(path)
