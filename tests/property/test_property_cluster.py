"""Property tests: cluster invariants under random traces and drains.

* exactly-once — across node boundaries: a drain mid-trace re-routes
  queued work, yet every submitted request resolves exactly once (never
  lost, never double-counted by the fleet's telemetry);
* conservation — for every balancing policy, served + shed == submitted;
* the no-traffic-to-drains invariant — power-of-two-choices (the only
  randomized policy), sampling the router's routable set, can never
  return a non-routable node.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterRouter, NodeSpec, NodeState, PowerOfTwoBalancer
from repro.nn.zoo import SIMPLE
from repro.workloads.requests import InferenceRequest
from tests.cluster.conftest import build_fleet
from tests.cluster.test_balancers import REQUEST, StubNode

POLICIES = [
    "round-robin",
    "least-outstanding",
    "join-shortest-queue",
    "power-of-two",
    "least-ect",
]

arrival_steps = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.02),        # gap to next arrival
        st.integers(min_value=1, max_value=256),         # batch
        st.one_of(st.none(), st.floats(min_value=0.01, max_value=0.5)),  # SLO
    ),
    min_size=1,
    max_size=30,
)


def submit_steps(router, steps):
    t = 0.0
    for i, (gap, batch, slo) in enumerate(steps):
        t += gap
        router.submit_request(
            InferenceRequest(
                request_id=i,
                arrival_s=t,
                model="simple" if i % 2 else "mnist-small",
                batch=batch,
                deadline_s=None if slo is None else t + slo,
            )
        )
    return t


def assert_exactly_once(router, n):
    result = router.result()
    assert len(result.responses) == n
    assert all(r.done for r in result.responses)
    assert len(result.served) + len(result.shed) == n
    assert router.n_pending == 0
    served_ids = [r.request.request_id for r in result.served]
    assert len(served_ids) == len(set(served_ids))
    # Node telemetries agree: each served request was counted on exactly
    # one node (a duplicated execution would inflate the fleet total).
    assert router.telemetry.merged().n_served == len(result.served)


@settings(max_examples=10, deadline=None)
@given(
    steps=arrival_steps,
    policy=st.sampled_from(POLICIES),
    drain_frac=st.floats(min_value=0.0, max_value=1.0),
    victim=st.integers(min_value=0, max_value=2),
)
def test_exactly_once_across_drain(
    serving_predictors, steps, policy, drain_frac, victim
):
    fleet = build_fleet(
        serving_predictors,
        node_specs=(
            NodeSpec("node-a"),
            NodeSpec("node-b"),
            NodeSpec("node-c", device_classes=("cpu",)),
        ),
    )
    router = ClusterRouter(fleet, balancer=policy, rng=11)
    horizon = submit_steps(router, steps)

    router.run(until=drain_frac * horizon)
    router.drain_node(fleet[victim].name)
    router.run()

    assert_exactly_once(router, len(steps))
    # The drained node finished cleanly and no re-route landed on it.
    assert fleet[victim].state is NodeState.STANDBY
    assert all(
        r.node_name != fleet[victim].name for r in router.result().rerouted
    )


@settings(max_examples=10, deadline=None)
@given(steps=arrival_steps, policy=st.sampled_from(POLICIES))
def test_every_policy_conserves(serving_predictors, steps, policy):
    fleet = build_fleet(
        serving_predictors,
        node_specs=(NodeSpec("node-a"), NodeSpec("node-b", device_classes=("cpu",))),
    )
    router = ClusterRouter(fleet, balancer=policy, rng=3)
    submit_steps(router, steps)
    router.run()
    assert_exactly_once(router, len(steps))


@pytest.fixture(scope="module")
def six_nodes(serving_predictors):
    """Six real nodes whose states each example sets afresh."""
    return build_fleet(
        serving_predictors,
        node_specs=tuple(NodeSpec(f"n{i}") for i in range(6)),
    )


@settings(max_examples=100, deadline=None)
@given(
    states=st.lists(
        st.sampled_from([NodeState.ACTIVE, NodeState.DRAINING, NodeState.STANDBY]),
        min_size=2,
        max_size=6,
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_power_of_two_never_picks_unroutable(six_nodes, states, seed):
    # The router's routable set is the only filter; p2c samples within it.
    if not any(s is NodeState.ACTIVE for s in states):
        states = states[:-1] + [NodeState.ACTIVE]
    nodes = six_nodes[: len(states)]
    for node, state in zip(nodes, states):
        node.state = state
    p2c = PowerOfTwoBalancer(rng=seed)
    router = ClusterRouter(nodes, balancer=p2c)
    for _ in range(10):
        chosen = p2c.choose(router.routable_nodes(), REQUEST, SIMPLE, now=0.0)
        assert chosen.state is NodeState.ACTIVE


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_power_of_two_replays_identically(seed):
    def run(s):
        nodes = [StubNode(f"n{i}", samples=i * 7 % 5) for i in range(5)]
        p2c = PowerOfTwoBalancer(rng=s)
        return [p2c.choose(nodes, REQUEST, SIMPLE, now=0.0).name for _ in range(15)]

    assert run(seed) == run(seed)


def test_policies_list_matches_registry():
    from repro.cluster import BALANCERS

    assert set(POLICIES) == set(BALANCERS)
