"""Batch-interval keying: the cell memo and the decision cache key a batch
by the interval between two split thresholds of the predictor's trees.

Every tree sends every batch of one interval down the same path, so a
memo cell primed by any batch of an interval must hold the bits a fresh
one-row ``predict_proba`` gives for every other batch of it.  The
datasets plant label steps in the batch column so splits land exactly on
an integer batch or half a batch above one; probes sit at each cut and
one batch either side of it, where an off-by-one in the interval
arithmetic would show.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterRouter, LeastECTBalancer, NodeSpec, make_fleet
from repro.ml.forest import RandomForestClassifier
from repro.ml.knn import KNeighborsClassifier
from repro.ml.tree import DecisionTreeClassifier
from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.sched.dataset import DEVICE_CLASSES, SchedulerDataset
from repro.sched.features import encode_point
from repro.sched.policies import Policy
from repro.sched.predictor import DevicePredictor, batch_interval
from repro.serving import SLOConfig
from repro.shard.digest import digest_responses
from tests.placement_oracle import use_uncached

SPECS = (SIMPLE, MNIST_SMALL)
STATES = ("warm", "idle")

#: Distinct planted label steps; each flag says whether the split lands
#: exactly on the step (an integer cut) or half a batch above it.
planted = st.lists(
    st.tuples(st.integers(min_value=2, max_value=50_000), st.booleans()),
    min_size=1,
    max_size=4,
    unique_by=lambda step: step[0],
)


def planted_dataset(steps) -> SchedulerDataset:
    """Labels that step at every planted batch, per model and dGPU state."""
    batches = {1, 4 * max(b for b, _ in steps) + 7}
    for b, integer in steps:
        batches |= {b - 1, b + 1} if integer else {b, b + 1}
    rows, labels, names, row_batches, states = [], [], [], [], []
    for m, spec in enumerate(SPECS):
        for s, state in enumerate(STATES):
            for batch in sorted(batches):
                step = sum(batch > b for b, _ in steps)
                rows.append(encode_point(spec, batch, state))
                labels.append((step + m + s) % len(DEVICE_CLASSES))
                names.append(spec.name)
                row_batches.append(batch)
                states.append(state)
    return SchedulerDataset(
        policy=Policy.THROUGHPUT,
        x=np.vstack(rows),
        y=np.asarray(labels, dtype=np.int64),
        specs=names,
        batches=np.asarray(row_batches, dtype=np.int64),
        gpu_states=states,
    )


def estimator(kind: str, seed: int):
    if kind == "tree":
        return DecisionTreeClassifier(max_features=None, random_state=seed)
    return RandomForestClassifier(n_estimators=4, random_state=seed)


def probe_batches(cuts) -> "list[int]":
    """Batch 1, and each cut's floor and ceiling and one batch either
    side of them, all >= 1 (a bootstrap may leave no cut at all)."""
    out = {1}
    for cut in cuts:
        lo, hi = math.floor(cut), math.ceil(cut)
        out |= {lo - 1, lo, hi, hi + 1}
    return sorted(b for b in out if b >= 1)


def fitted(kind: str, seed: int, steps) -> DevicePredictor:
    return DevicePredictor(Policy.THROUGHPUT, estimator(kind, seed)).fit(
        planted_dataset(steps)
    )


class TestCellMatchesFreshScore:
    @settings(max_examples=30, deadline=None)
    @given(
        steps=planted,
        kind=st.sampled_from(("tree", "forest")),
        seed=st.integers(min_value=0, max_value=2**16),
        order=st.randoms(use_true_random=False),
    )
    def test_interval_cell_is_the_one_row_score(self, steps, kind, seed, order):
        predictor = fitted(kind, seed, steps)
        cuts = predictor.batch_cuts()
        assert cuts is not None and list(cuts) == sorted(set(cuts))
        probes = [
            (spec, batch, state)
            for spec in SPECS for batch in probe_batches(cuts) for state in STATES
        ]
        order.shuffle(probes)                # which batch primes a cell varies
        for spec, batch, state in probes:
            proba, classes = predictor.cell(spec, batch, state)
            fresh = predictor.estimator.predict_proba(
                encode_point(spec, batch, state)[None, :]
            )[0]
            assert proba.tobytes() == fresh.tobytes()
            assert classes == tuple(
                DEVICE_CLASSES[i] for i in np.argsort(fresh)[::-1]
            )
        intervals = {batch_interval(cuts, b) for _, b, _ in probes}
        assert len(predictor._cells) == len(SPECS) * len(STATES) * len(intervals)


class RawBatchPredictor(DevicePredictor):
    """Keys the memo, and so the decision cache, by raw batch: the oracle."""

    def batch_cuts(self):
        return None


#: Small queues and a tight deadline so a short replay spills and sheds.
SLO = SLOConfig(deadline_s=0.05, max_queue_depth=8, max_batch=64, max_wait_s=0.002)
NODES = (
    NodeSpec("full-a"),
    NodeSpec("full-b"),
    NodeSpec("cpu", device_classes=("cpu",)),
)


def replay(predictor, arrivals, uncached: bool = False) -> str:
    fleet = make_fleet(
        NODES, {Policy.THROUGHPUT: predictor}, {s.name: s for s in SPECS},
        default_slo=SLO,
    )
    if uncached:
        use_uncached(fleet)
    router = ClusterRouter(fleet, balancer=LeastECTBalancer())
    for arrival_s, model, batch in arrivals:
        router.submit(model, batch, arrival_s=arrival_s)
    router.run()
    assert router.n_pending == 0
    return digest_responses(router.result().responses)


class TestFleetReplay:
    @settings(max_examples=12, deadline=None)
    @given(
        steps=planted,
        kind=st.sampled_from(("tree", "forest")),
        seed=st.integers(min_value=0, max_value=2**16),
        data=st.data(),
    )
    def test_cache_on_off_and_raw_keys_agree(self, steps, kind, seed, data):
        dataset = planted_dataset(steps)
        predictor = DevicePredictor(Policy.THROUGHPUT, estimator(kind, seed))
        predictor.fit(dataset)
        batches = probe_batches(predictor.batch_cuts())
        gaps = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from((0.0, 0.0005, 0.003)),
                    st.sampled_from([s.name for s in SPECS]),
                    st.sampled_from(batches),
                ),
                min_size=8,
                max_size=40,
            )
        )
        arrivals, now = [], 0.0
        for gap, model, batch in gaps:
            now += gap
            arrivals.append((now, model, batch))
        raw = RawBatchPredictor(Policy.THROUGHPUT, estimator(kind, seed))
        raw.fit(dataset)
        cached = replay(predictor, arrivals)
        assert cached == replay(predictor, arrivals, uncached=True)
        assert cached == replay(raw, arrivals)


def test_estimators_without_split_points_key_by_raw_batch():
    """Only tree models partition the batch column; any other estimator
    takes the same memo path with each batch as its own interval."""
    knn = DevicePredictor(Policy.THROUGHPUT, KNeighborsClassifier(n_neighbors=3))
    knn.fit(planted_dataset([(100, True)]))
    assert knn.batch_cuts() is None
    for batch in (98, 99, 100, 99):
        proba, _ = knn.cell(SIMPLE, batch, "warm")
        row = encode_point(SIMPLE, batch, "warm")[None, :]
        fresh = knn.estimator.predict_proba(row)
        assert proba.tobytes() == fresh[0].tobytes()
    assert sorted(key[1] for key in knn._cells) == [98, 99, 100]


def test_non_positive_batch_is_rejected_even_when_its_interval_is_cached():
    predictor = fitted("tree", 0, [(100, True)])
    predictor.cell(SIMPLE, 1, "warm")
    with pytest.raises(ValueError, match="batch must be positive"):
        predictor.cell(SIMPLE, 0, "warm")
