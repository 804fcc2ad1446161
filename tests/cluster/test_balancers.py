"""Balancing policies over stub nodes: pure policy logic, no fleet needed.

The stubs expose exactly the surface the policies are documented to read
— the frontend's load counters (``queued``, ``outstanding``,
``outstanding_samples``) and the backlog's ``estimate_completion`` — so
these tests also pin that contract.  Which nodes a policy may pick is the
router's call (its routable set); that filter is tested through a real
router here.
"""

import pytest

from repro.errors import SchedulerError
from repro.cluster import (
    BALANCERS,
    ClusterRouter,
    JoinShortestQueueBalancer,
    LeastECTBalancer,
    LeastOutstandingBalancer,
    NodeSpec,
    NodeState,
    PowerOfTwoBalancer,
    RoundRobinBalancer,
    make_balancer,
)
from repro.nn.zoo import SIMPLE
from repro.workloads.requests import InferenceRequest
from tests.cluster.conftest import build_fleet

REQUEST = InferenceRequest(request_id=0, arrival_s=0.0, model="simple", batch=8)


class StubBacklog:
    def __init__(self, delay_s):
        self.delay_s = delay_s

    def estimate_completion(self, spec, batch, now):
        return "cpu", self.delay_s


class StubFrontend:
    """All outstanding work queued, none in flight."""

    def __init__(self, delay_s, outstanding, samples):
        self.backlog = StubBacklog(delay_s)
        self.queued = self.outstanding = outstanding
        self.outstanding_samples = samples


class StubNode:
    def __init__(
        self, name, state=NodeState.ACTIVE, outstanding=0, samples=0, ect_s=0.0
    ):
        self.name = name
        self.state = state
        self.frontend = StubFrontend(ect_s, outstanding, samples)


def choose(balancer, nodes):
    return balancer.choose(nodes, REQUEST, SIMPLE, now=0.0)


# -- the shared choose() contract --------------------------------------------

def test_choose_raises_with_no_active_node():
    # An empty routable set: the router found no active node.
    with pytest.raises(SchedulerError, match="no active node"):
        choose(RoundRobinBalancer(), [])


@pytest.mark.parametrize("name", sorted(BALANCERS))
def test_choose_filters_unroutable_nodes(serving_predictors, name):
    # The router's routable set is the one filter: the active node takes
    # every request although the draining and standby ones stay idle.
    fleet = build_fleet(
        serving_predictors,
        node_specs=(
            NodeSpec("draining"), NodeSpec("active"),
            NodeSpec("standby", active=False),
        ),
    )
    fleet[0].start_drain()   # idle, so it would finish; it stays DRAINING
    router = ClusterRouter(fleet, balancer=make_balancer(name, rng=0))
    for i in range(10):
        router.submit("simple", 512, arrival_s=i * 1e-4)
    router.run()
    assert fleet[0].state is NodeState.STANDBY   # swept once the loop ran
    assert [r.node_name for r in router.result().responses] == ["active"] * 10


# -- per-policy behavior -----------------------------------------------------

def test_round_robin_cycles_active_set():
    nodes = [StubNode(n) for n in ("a", "b", "c")]
    rr = RoundRobinBalancer()
    assert [choose(rr, nodes).name for _ in range(6)] == list("abcabc")


def test_least_outstanding_picks_min_with_name_ties():
    nodes = [
        StubNode("c", outstanding=2),
        StubNode("b", outstanding=1),
        StubNode("a", outstanding=1),
    ]
    assert choose(LeastOutstandingBalancer(), nodes).name == "a"


def test_jsq_weighs_samples_over_request_count():
    # One giant request outweighs many small ones: JSQ sees *work*.
    nodes = [
        StubNode("one-big", outstanding=1, samples=10_000),
        StubNode("many-small", outstanding=5, samples=40),
    ]
    assert choose(JoinShortestQueueBalancer(), nodes).name == "many-small"
    assert choose(LeastOutstandingBalancer(), nodes).name == "one-big"


def test_power_of_two_is_seed_deterministic():
    def picks(seed):
        nodes = [StubNode(n, samples=i) for i, n in enumerate("abcde")]
        p2c = PowerOfTwoBalancer(rng=seed)
        return [choose(p2c, nodes).name for _ in range(30)]

    assert picks(42) == picks(42)
    assert picks(42) != picks(43)  # astronomically unlikely to collide


def test_power_of_two_takes_lighter_of_its_probes():
    # With two nodes, both get probed; the lighter one must win every time.
    nodes = [StubNode("light", samples=1), StubNode("heavy", samples=100)]
    p2c = PowerOfTwoBalancer(rng=7)
    assert all(choose(p2c, nodes).name == "light" for _ in range(20))


def test_least_ect_trusts_the_estimate_not_the_queue():
    # A short queue of slow work loses to a long queue of fast work.
    nodes = [
        StubNode("slow-idle", outstanding=0, samples=0, ect_s=0.5),
        StubNode("fast-busy", outstanding=8, samples=512, ect_s=0.01),
    ]
    assert choose(LeastECTBalancer(), nodes).name == "fast-busy"
    assert choose(JoinShortestQueueBalancer(), nodes).name == "slow-idle"


# -- registry ----------------------------------------------------------------

def test_registry_names_match_instances():
    assert set(BALANCERS) == {
        "round-robin",
        "least-outstanding",
        "join-shortest-queue",
        "power-of-two",
        "least-ect",
    }
    for name in BALANCERS:
        assert make_balancer(name, rng=0).name == name


def test_make_balancer_unknown_name():
    with pytest.raises(SchedulerError, match="unknown balancing policy"):
        make_balancer("random")
