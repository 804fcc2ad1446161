"""ClusterRouter: construction guards, routing, drains, and bookkeeping."""

import numpy as np
import pytest

from repro.errors import SchedulerError
from repro.cluster import ClusterRouter, NodeSpec, NodeState, build_node
from repro.nn.zoo import SIMPLE
from repro.serving import SLOConfig
from repro.workloads.requests import InferenceRequest
from tests.cluster.conftest import build_fleet
from tests.serving.conftest import SERVING_SPECS

#: Queues hold work (no flush before ~10s) so drains always find entries.
HOLD_SLO = SLOConfig(max_queue_depth=None, max_batch=100_000, max_wait_s=10.0)


# -- construction guards -----------------------------------------------------

def test_router_rejects_empty_fleet():
    with pytest.raises(SchedulerError, match="at least one node"):
        ClusterRouter([])


def test_router_rejects_duplicate_names(serving_predictors):
    (node,) = build_fleet(serving_predictors, node_specs=(NodeSpec("solo"),))
    with pytest.raises(SchedulerError, match="duplicate"):
        ClusterRouter([node, node])


def test_router_rejects_mixed_loops(serving_predictors):
    (a,) = build_fleet(serving_predictors, node_specs=(NodeSpec("a"),))
    (b,) = build_fleet(serving_predictors, node_specs=(NodeSpec("b"),))
    with pytest.raises(SchedulerError, match="share one event loop"):
        ClusterRouter([a, b])


def test_router_rejects_mismatched_model_sets(serving_predictors):
    (a,) = build_fleet(serving_predictors, node_specs=(NodeSpec("a"),))
    odd = build_node(
        NodeSpec("odd"),
        serving_predictors,
        {"simple": SIMPLE},          # serves only one of the two models
        loop=a.frontend.loop,
    )
    with pytest.raises(SchedulerError, match="serves"):
        ClusterRouter([a, odd])


# -- submission guards -------------------------------------------------------

def test_submit_unknown_model(serving_predictors):
    router = ClusterRouter(
        build_fleet(serving_predictors, node_specs=(NodeSpec("solo"),))
    )
    with pytest.raises(SchedulerError, match="not served"):
        router.submit("resnet-152", 8)


def test_submit_duplicate_request_id(serving_predictors):
    router = ClusterRouter(
        build_fleet(serving_predictors, node_specs=(NodeSpec("solo"),))
    )
    request = InferenceRequest(request_id=7, arrival_s=0.0, model="simple", batch=8)
    router.submit_request(request)
    with pytest.raises(SchedulerError, match="duplicate request_id"):
        router.submit_request(request)


def test_submit_into_the_past(serving_predictors):
    router = ClusterRouter(
        build_fleet(serving_predictors, node_specs=(NodeSpec("solo"),))
    )
    router.submit("simple", 8, arrival_s=0.5)
    router.run()
    with pytest.raises(SchedulerError, match="into the past"):
        router.submit("simple", 8, arrival_s=0.1)


@pytest.mark.parametrize("batch", [2.5, True, "3"])
def test_submit_non_integer_batch(serving_predictors, batch):
    """A bare batch size is taken as given, never truncated."""
    router = ClusterRouter(
        build_fleet(serving_predictors, node_specs=(NodeSpec("solo"),))
    )
    with pytest.raises(ValueError, match="batch"):
        router.submit("simple", batch)
    assert router.result().responses == []


def test_submit_misshaped_host_batch(serving_predictors):
    """Host rows that do not fit the model's input raise at submit; a
    well-formed request submitted alongside is still served."""
    router = ClusterRouter(
        build_fleet(serving_predictors, node_specs=(NodeSpec("solo"),))
    )
    good = router.submit_request(
        InferenceRequest(0, 0.0, "mnist-small", 2),
        x=np.zeros((2, 784), dtype=np.float32),
    )
    for rows, x in ((3, np.zeros((3, 7))), (3, np.zeros((2, 784))), (1, np.zeros(()))):
        with pytest.raises(ValueError, match=rf"x for model 'mnist-small'.*\({rows}, 784\)"):
            router.submit_request(InferenceRequest(1, 0.0, "mnist-small", rows), x=x)
    router.run()
    assert good.served and good.scores.shape[0] == 2
    assert router.result().responses == [good]


# -- routing -----------------------------------------------------------------

def test_round_robin_spreads_across_the_fleet(serving_predictors):
    router = ClusterRouter(build_fleet(serving_predictors), balancer="round-robin")
    responses = [router.submit("simple", 8, arrival_s=0.0) for _ in range(4)]
    router.run()
    assert all(r.served for r in responses)
    assert {r.node_name for r in responses} == {
        "node-a", "node-b", "node-c", "node-d"
    }
    assert router.n_pending == 0


def test_no_active_node_sheds_not_loses(serving_predictors):
    router = ClusterRouter(
        build_fleet(
            serving_predictors,
            node_specs=(NodeSpec("off-1", active=False), NodeSpec("off-2", active=False)),
        )
    )
    response = router.submit("simple", 8)
    router.run()
    assert response.done
    assert response.status == "shed"
    assert response.shed_reason == "no_active_node"
    assert any(e.kind == "route_failed" for e in router.events)


# -- drains ------------------------------------------------------------------

def test_drain_reroutes_exactly_once(serving_predictors):
    fleet = build_fleet(serving_predictors, default_slo=HOLD_SLO)
    router = ClusterRouter(fleet, balancer="round-robin")
    n = 40
    responses = [
        router.submit("simple", 8, arrival_s=0.01 * i) for i in range(n)
    ]
    router.run(until=0.15)

    drained = router.drain_node("node-a")
    assert drained > 0
    assert router.n_rerouted == drained
    assert router.node("node-a").state in (NodeState.DRAINING, NodeState.STANDBY)

    router.run()
    result = router.result()
    # Conservation: every submission resolved exactly once, fleet-wide.
    assert all(r.done for r in responses)
    assert len(result.served) + len(result.shed) == n
    ids = [r.request.request_id for r in result.served]
    assert len(ids) == len(set(ids))
    assert router.telemetry.merged().n_served == len(result.served)
    # Rerouted requests landed elsewhere; the drain reached standby.
    assert all(r.node_name != "node-a" for r in result.rerouted)
    assert router.node("node-a").state is NodeState.STANDBY
    assert {"drain_start", "reroute", "drain_complete"} <= {
        e.kind for e in router.events
    }


def test_draining_node_gets_no_new_traffic(serving_predictors):
    fleet = build_fleet(serving_predictors, default_slo=HOLD_SLO)
    router = ClusterRouter(fleet, balancer="round-robin")
    responses = [
        router.submit("simple", 8, arrival_s=0.01 * i) for i in range(40)
    ]
    router.run(until=0.15)
    router.drain_node("node-a")
    router.run()
    for response in responses:
        if response.request.arrival_s > 0.15:
            assert response.node_name != "node-a"


# -- views -------------------------------------------------------------------

def test_stats_and_result_views(serving_predictors):
    router = ClusterRouter(build_fleet(serving_predictors), balancer="least-ect")
    for i in range(8):
        router.submit("mnist-small", 64, deadline_s=0.3, arrival_s=0.005 * i)
    router.run()
    result = router.result()

    stats = router.stats()
    assert stats["balancer"] == "least-ect"
    assert stats["pending"] == 0
    assert stats["served"] == len(result.served)
    assert set(stats["states"]) == {"node-a", "node-b", "node-c", "node-d"}
    assert all(v == 0 for v in stats["load"].values())

    assert len(result) == 8
    assert result.shed_rate == pytest.approx(len(result.shed) / 8)
    shares = result.node_shares()
    assert sum(shares.values()) == pytest.approx(1.0)
    assert sum(result.device_shares().values()) == pytest.approx(1.0)
    assert result.latency_percentile(99.0) >= result.latency_percentile(50.0)
