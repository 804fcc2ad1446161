"""The predictor's per-cell memo: batched priming and the shared class order.

A balancer primes every cell a trace will probe in one ``predict_proba``
call; a scheduler ranks devices from the memoized class order.  Both are
only safe because a row scored in a batch is bit-identical to the same
row scored alone, and because the order is exactly the reversed default
``np.argsort`` the ranking always used — including on tied probabilities,
where a different sort kind could swap classes.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.forest import RandomForestClassifier
from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.sched.dataset import DEVICE_CLASSES
from repro.sched.online import OnlineConfig, OnlinePredictor
from repro.sched.policies import Policy
from repro.sched.predictor import DevicePredictor, batch_interval

SPECS = {s.name: s for s in (SIMPLE, MNIST_SMALL)}

cells_strategy = st.lists(
    st.tuples(
        st.sampled_from((SIMPLE, MNIST_SMALL)),
        st.integers(min_value=1, max_value=300_000),
        st.sampled_from(("warm", "idle")),
    ),
    min_size=1,
    max_size=24,
)


@pytest.fixture(scope="module")
def pristine(online_dataset):
    """Never-queried fitted predictors; tests query deep copies only.

    The second is two fully grown trees: every leaf is pure, so each cell
    scores one-hot or a 50/50 split over three classes — always a tie.
    """
    tuned = DevicePredictor(Policy.THROUGHPUT).fit(online_dataset)
    tied = DevicePredictor(
        Policy.THROUGHPUT,
        RandomForestClassifier(n_estimators=2, max_features=None, random_state=3),
    ).fit(online_dataset)
    return tuned, tied


def forbid_forest(predictor: DevicePredictor) -> None:
    """Make any further forest evaluation on ``predictor`` fail loudly."""

    def fail(_x):
        raise AssertionError("cell should have been served from the memo")

    predictor.estimator.predict_proba = fail


def reference_order(proba: np.ndarray) -> tuple:
    return tuple(DEVICE_CLASSES[i] for i in np.argsort(proba)[::-1])


class TestFitted:
    def test_device_predictor_reports_fit(self, online_dataset):
        predictor = DevicePredictor(Policy.THROUGHPUT)
        assert predictor.fitted is False
        predictor.fit(online_dataset)
        assert predictor.fitted is True

    def test_online_predictor_reports_its_base(self, online_dataset):
        base = DevicePredictor(Policy.THROUGHPUT).fit(online_dataset)
        online = OnlinePredictor(base, SPECS, online_dataset, OnlineConfig())
        assert online.fitted is True
        base._fitted = False
        assert online.fitted is False


class TestBatchedPriming:
    @settings(max_examples=40, deadline=None)
    @given(cells=cells_strategy)
    def test_batched_equals_one_cell_at_a_time(self, pristine, cells):
        for model in pristine:
            batched = copy.deepcopy(model)
            batched._PRIME_BLOCK = 5           # several forest calls
            lazy = copy.deepcopy(model)
            cuts = batched.batch_cuts()
            distinct = {
                (spec.name, batch_interval(cuts, batch), state)
                for spec, batch, state in cells
            }
            assert batched.prime_cells(cells) == len(distinct)
            forbid_forest(batched)
            for spec, batch, state in cells:
                alone, order = lazy.cell(spec, batch, state)
                primed, primed_order = batched.cell(spec, batch, state)
                assert primed.tobytes() == alone.tobytes()
                assert primed_order == order == reference_order(alone)

    def test_tie_predictor_really_ties(self, pristine):
        _, tied = pristine
        predictor = copy.deepcopy(tied)
        for spec in (SIMPLE, MNIST_SMALL):
            for batch in (1, 64, 1024, 16384, 262144):
                proba, _ = predictor.cell(spec, batch, "warm")
                assert len(set(proba.tolist())) < len(proba)

    def test_primes_only_missing_cells(self, pristine):
        predictor = copy.deepcopy(pristine[0])
        predictor.cell(SIMPLE, 8, "warm")
        cells = [(SIMPLE, 8, "warm"), (SIMPLE, 8, "idle"), (SIMPLE, 8, "idle")]
        assert predictor.prime_cells(cells) == 1
        assert predictor.prime_cells(cells) == 0

    def test_one_pass_never_evicts_its_own_cells(self, pristine):
        predictor = copy.deepcopy(pristine[0])
        predictor._CELL_CACHE_MAX = 4
        cuts = predictor.batch_cuts()
        # One batch per interval: the last batch at or below each cut,
        # then one past the final cut.
        batches = [int(c) for c in cuts if c >= 1] + [int(cuts[-1]) + 1]
        firsts = list({batch_interval(cuts, b): b for b in batches}.values())
        assert len(firsts) > 4
        for batch in firsts[:4]:         # fill the memo with older cells
            predictor.cell(MNIST_SMALL, batch, "idle")
        cells = [(SIMPLE, batch, "warm") for batch in firsts]
        assert predictor.prime_cells(cells) == 4
        lazy = copy.deepcopy(pristine[0])
        calls = []
        forest = predictor.estimator.predict_proba
        predictor.estimator.predict_proba = lambda x: calls.append(1) or forest(x)
        for spec, batch, state in cells:
            primed, _ = predictor.cell(spec, batch, state)
            assert primed.tobytes() == lazy.cell(spec, batch, state)[0].tobytes()
        # The first four were primed and survived; the rest ran lazily.
        assert len(calls) == len(cells) - 4

    def test_online_predictor_shares_the_base_memo(self, pristine, online_dataset):
        base = copy.deepcopy(pristine[0])
        online = OnlinePredictor(base, SPECS, online_dataset, OnlineConfig())
        assert online.prime_cells([(SIMPLE, 8, "warm")]) == 1
        forbid_forest(base)
        assert online.cell(SIMPLE, 8, "warm") is base.cell(SIMPLE, 8, "warm")
