"""Least-ECT's per-ingestion priming and delay-only probes change no decision.

``LeastECTBalancer.prepare`` scores every (model, batch interval) cell of
a newly ledgered trace in one forest call per predictor; ``_pick`` reads
sample counts only for nodes tied on the minimum delay.  Both are cost-only:
against the no-prime oracle (``NoPrimeLeastECT``) and the old
``min(key=(delay, samples, name))`` pick, every outcome digest must match
on every ingestion path.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterRouter, LeastECTBalancer, NodeSpec
from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.sched.dataset import generate_dataset
from repro.sched.online import OnlineConfig, OnlinePredictor
from repro.sched.policies import Policy
from repro.sched.predictor import DevicePredictor, batch_interval
from repro.shard.digest import digest_responses
from repro.workloads import MixedTrace, MMPPStream, TraceComponent
from tests.cluster.conftest import HET_NODE_SPECS, NoPrimeLeastECT, build_fleet
from tests.cluster.test_balancers import REQUEST, StubNode
from tests.replay_oracle import route_per_request

#: Four identical full-testbed nodes: every idle instant is a four-way tie.
TWIN_NODE_SPECS = tuple(NodeSpec(f"twin-{i}") for i in range(4))


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(
        "throughput",
        specs=[SIMPLE, MNIST_SMALL],
        batches=(1, 64, 1024, 16384, 262144),
    )


@pytest.fixture(scope="module")
def pristine(dataset):
    """A fitted predictor no test queries directly (runs use deep copies)."""
    return DevicePredictor(Policy.THROUGHPUT).fit(dataset)


@pytest.fixture(scope="module")
def lognormal_trace():
    """Continuous arrival times and lognormal batches: no two runs share
    an instant and batch sizes spread over hundreds of cells."""
    return MixedTrace(components=(
        TraceComponent(
            process=MMPPStream(
                horizon_s=0.4, slo_s=0.3,
                rates_hz=(2_000.0, 6_000.0), mean_sojourn_s=(0.02, 0.01),
                mean_batch=128, batch_sigma=0.6, quantum_s=None,
            ),
            models=(MNIST_SMALL.name, SIMPLE.name),
        ),
    )).build(rng=5)


def fresh_router(pristine, balancer, node_specs=HET_NODE_SPECS) -> ClusterRouter:
    predictors = {Policy.THROUGHPUT: copy.deepcopy(pristine)}
    return ClusterRouter(
        build_fleet(predictors, node_specs=node_specs), balancer=balancer
    )


def count_forest_calls(predictor) -> list:
    """Record the row count of every forest call made through ``predictor``."""
    calls = []
    forest = predictor.estimator.predict_proba

    def counted(x):
        calls.append(len(x))
        return forest(x)

    predictor.estimator.predict_proba = counted
    return calls


def interval_cells(predictor, trace) -> set:
    """The distinct (model, batch interval) cells of ``trace``."""
    cuts = predictor.batch_cuts()
    return {(r.model, batch_interval(cuts, r.batch)) for r in trace}


def replay(router, trace, path) -> str:
    if path == "feed_requests":
        requests = list(trace)
        half = len(requests) // 2
        router.feed_requests(requests[:half])
        router.run(until=requests[half].arrival_s)
        router.feed_requests(requests[half:])
        router.run()
        responses = router.result().responses
    elif path == "per_event":
        # No prepare() call: submit_request primes one cell at a time,
        # lazily, at its first probe.
        responses = route_per_request(router, trace).responses
    else:
        responses = router.serve_trace(trace).responses
    assert router.n_pending == 0
    return digest_responses(responses)


class TestNoPrimeOracle:
    @pytest.mark.parametrize("path", ["per_event", "serve_trace", "feed_requests"])
    def test_priming_changes_no_outcome(self, pristine, lognormal_trace, path):
        primed = fresh_router(pristine, LeastECTBalancer())
        oracle = fresh_router(pristine, NoPrimeLeastECT())
        assert replay(primed, lognormal_trace, path) == replay(
            oracle, lognormal_trace, path
        )


class TestPrepare:
    def test_whole_trace_primed_in_blocks(self, pristine, lognormal_trace):
        router = fresh_router(pristine, LeastECTBalancer())
        predictor = router.nodes[0].frontend.backlog.scheduler.predictors[
            Policy.THROUGHPUT
        ]
        predictor._PRIME_BLOCK = 3
        calls = count_forest_calls(predictor)
        router.feed_requests(list(lognormal_trace))
        # One row per (model, batch interval, dGPU state), not per batch.
        rows = 2 * len(interval_cells(predictor, lognormal_trace))
        assert rows > 2 * 3                    # several blocks, both states
        assert rows < len({(r.model, r.batch) for r in lognormal_trace})
        assert sum(calls) == rows
        assert calls == [3] * (rows // 3) + ([rows % 3] if rows % 3 else [])
        router.run()
        assert router.n_pending == 0

    def test_online_fleets_are_primed(self, pristine, dataset, lognormal_trace):
        online = OnlinePredictor(
            copy.deepcopy(pristine), {s.name: s for s in (SIMPLE, MNIST_SMALL)},
            dataset, OnlineConfig(),
        )
        router = ClusterRouter(
            build_fleet({Policy.THROUGHPUT: online}), balancer="least-ect"
        )
        calls = count_forest_calls(online)
        router.feed_requests(list(lognormal_trace))
        cells = interval_cells(online, lognormal_trace)
        assert calls and sum(calls) == 2 * len(cells)

    def test_single_routable_node_primes_nothing(self, pristine, lognormal_trace):
        router = fresh_router(
            pristine, LeastECTBalancer(), node_specs=(NodeSpec("solo"),)
        )
        predictor = router.nodes[0].frontend.backlog.scheduler.predictors[
            Policy.THROUGHPUT
        ]
        calls = count_forest_calls(predictor)
        router.feed_requests(list(lognormal_trace))
        assert calls == []


class OracleCheckedLeastECT(LeastECTBalancer):
    """Checks every pick against the old full-key ``min`` and counts ties."""

    def __init__(self):
        super().__init__()
        self.n_ties = 0

    def _pick(self, nodes, request, spec, now):
        chosen = super()._pick(nodes, request, spec, now)

        def key(node):
            _, delay = node.frontend.backlog.estimate_completion(
                spec, request.batch, now
            )
            return (delay, node.frontend.outstanding_samples, node.name)

        keys = [key(node) for node in nodes]
        best = min(keys)
        assert chosen is min(nodes, key=key)
        if sum(k[0] == best[0] for k in keys) > 1:
            self.n_ties += 1
        return chosen


class TestDelayOnlyPick:
    @pytest.mark.parametrize(
        "node_specs", [TWIN_NODE_SPECS, HET_NODE_SPECS], ids=["idle", "cpu-twins"]
    )
    def test_pick_matches_full_key_min(self, pristine, lognormal_trace, node_specs):
        balancer = OracleCheckedLeastECT()
        router = fresh_router(pristine, balancer, node_specs=node_specs)
        # The lognormal trace, then sparse arrivals that each find every
        # node idle again: an exact delay tie.
        router.serve_trace(lognormal_trace)
        start = router.loop.now + 1.0
        for i in range(8):
            router.submit("simple", 8, arrival_s=start + 0.5 * i)
        router.run()
        assert router.n_pending == 0
        assert balancer.n_ties > 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from((0.0, 0.1, 0.2, float("inf"))),
                st.integers(min_value=0, max_value=2),
            ),
            min_size=2,
            max_size=6,
        )
    )
    def test_stub_pick_matches_full_key_min(self, planted):
        nodes = [
            StubNode(f"n{i}", samples=samples, ect_s=delay)
            for i, (delay, samples) in reversed(list(enumerate(planted)))
        ]
        expected = min(
            nodes,
            key=lambda n: (
                n.frontend.backlog.delay_s, n.frontend.outstanding_samples, n.name
            ),
        )
        assert LeastECTBalancer().choose(nodes, REQUEST, SIMPLE, 0.0) is expected
