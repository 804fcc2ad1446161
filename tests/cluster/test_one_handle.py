"""One handle per routed request, resolved exactly once on every move path.

A routed request keeps one :class:`~repro.serving.frontend.ServingResponse`
from its first route to its resolution.  Each case below moves a lone
request once — a drain, a timeout rescue, a transient-failure retry, a
crash re-adoption, a dGPU drop and a partition split — and checks that:

* ``on_done`` fired once, with the handle;
* ``node_name`` and ``n_routes`` end where the move put them;
* right after every re-admission, a timeout armed for an earlier route
  fires as a dead letter (nothing cancelled, logged or re-armed);
* resolving the handle again raises and moves no counter.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterRouter, NodeSpec, build_node
from repro.errors import SchedulerError
from repro.faults import FaultInjector, ResilienceConfig
from repro.hw.specs import DGPU_GTX_1080TI
from repro.partition import PartitionableDeviceSpec, PartitionedAccelerator
from repro.serving import ServingFrontend, SLOConfig
from repro.sim.engine import EventLoop
from repro.workloads.requests import InferenceRequest, RequestTrace
from tests.cluster.conftest import CLUSTER_SLO, build_fleet
from tests.serving.conftest import SERVING_SPECS

RESILIENCE = ResilienceConfig(
    timeout_s=0.05, heartbeat_every_s=0.01, breaker_cooldown_s=0.05,
    breaker_max_cooldown_s=0.4, seed=11,
)
TWO_NODES = (NodeSpec("node-a"), NodeSpec("node-b"))


def two_node_router(predictors, slo_a=CLUSTER_SLO) -> ClusterRouter:
    """Round-robin over node-a then node-b; node-a may hold requests longer."""
    loop = EventLoop()
    nodes = [
        build_node(spec, predictors, SERVING_SPECS, loop=loop, default_slo=slo)
        for spec, slo in zip(TWO_NODES, (slo_a, CLUSTER_SLO))
    ]
    return ClusterRouter(nodes, balancer="round-robin", resilience=RESILIENCE)


def watch_readmits(router, monkeypatch) -> list:
    """Fire the previous route's timeout right after every re-admission.

    Returns the list of handles checked (one per re-admission that left
    the request pending).
    """
    checked = []
    readmit = ServingFrontend.readmit

    def state(response):
        frontend = router.node(response.node_name).frontend
        return (
            response.status, response.node_name, response.n_routes,
            frontend.n_pending, router.telemetry.resilience.n_timeouts,
            len(router.events), router.loop.pending,
        )

    def readmit_then_stale_timeout(frontend, response):
        response = readmit(frontend, response)
        if not response.done:
            before = state(response)
            router._on_timeout(response, response.n_routes - 1)
            assert state(response) == before
            checked.append(response)
        return response

    monkeypatch.setattr(ServingFrontend, "readmit", readmit_then_stale_timeout)
    return checked


def submit_watched(router, model="simple", batch=8, deadline_s=2.0):
    response = router.submit(model, batch, deadline_s=deadline_s, arrival_s=0.0)
    calls = []
    response.on_done = calls.append
    return response, calls


def assert_resolved_once(router, response, calls, node, routes, status="ok"):
    assert calls == [response]
    assert response.status == status
    assert (response.node_name, response.n_routes) == (node, routes)
    counters = (router.n_pending, router.goodput())
    with pytest.raises(SchedulerError, match="already resolved"):
        response.resolve("shed", "second_resolution")
    assert calls == [response]
    assert response.status == status
    assert (router.n_pending, router.goodput()) == counters
    assert router.goodput() == router.result().goodput()


def test_drain_moves_the_handle(serving_predictors, monkeypatch):
    router = two_node_router(serving_predictors)
    checked = watch_readmits(router, monkeypatch)
    response, calls = submit_watched(router)
    # Still coalescing on node-a (max wait 5 ms) when the drain comes.
    router.loop.schedule(0.001, lambda _loop: router.drain_node("node-a"))
    router.run()
    assert checked == [response]
    assert router.n_rerouted == 1
    assert_resolved_once(router, response, calls, "node-b", 2)


def test_timeout_rescue_moves_the_handle(serving_predictors, monkeypatch):
    # node-a coalesces for a full second, so the 50 ms timeout rescues.
    holding = SLOConfig(
        deadline_s=0.3, max_queue_depth=64, max_batch=4096, max_wait_s=1.0
    )
    router = two_node_router(serving_predictors, slo_a=holding)
    checked = watch_readmits(router, monkeypatch)
    response, calls = submit_watched(router)
    router.run()
    assert checked == [response]
    assert router.telemetry.resilience.n_timeouts == 1
    assert_resolved_once(router, response, calls, "node-b", 2)


def test_failure_retry_moves_the_handle(serving_predictors, monkeypatch):
    router = two_node_router(serving_predictors)
    FaultInjector(router).inject_errors(
        0.0, "node-a", rate=1.0, duration_s=1.0, seed=1
    )
    checked = watch_readmits(router, monkeypatch)
    response, calls = submit_watched(router)
    router.run()
    assert checked == [response]
    assert router.telemetry.resilience.n_failures == 1
    assert_resolved_once(router, response, calls, "node-b", 2)


def test_crash_readoption_moves_the_handle(serving_predictors, monkeypatch):
    router = two_node_router(serving_predictors)
    FaultInjector(router).crash_node(0.001, "node-a")
    router.schedule_health(0.1)
    checked = watch_readmits(router, monkeypatch)
    response, calls = submit_watched(router)
    router.run()
    assert checked == [response]
    assert router.telemetry.resilience.n_crashes_detected == 1
    assert_resolved_once(router, response, calls, "node-b", 2)


def test_a_routed_node_refuses_direct_submissions(serving_predictors):
    """A routed node's frontend has no ingress of its own: submitting to
    it raises, naming the node, before anything is ledgered."""
    router = ClusterRouter(build_fleet(serving_predictors))
    node_a = router.nodes[0].frontend
    request = InferenceRequest(request_id=0, arrival_s=0.0, model="simple", batch=8)
    for submit in (
        lambda: node_a.submit("simple", 8, arrival_s=0.0),
        lambda: node_a.submit_request(request),
        lambda: node_a.serve_trace(RequestTrace((request,))),
    ):
        with pytest.raises(SchedulerError, match="node 'node-a'.*router"):
            submit()
    assert router.n_pending == 0 and node_a.n_pending == 0
    # The request is still the router's to take.
    response = router.submit_request(request)
    router.run()
    assert response.served and router.n_pending == 0


def test_a_router_refuses_a_frontend_with_its_own_ingress(serving_predictors):
    nodes = build_fleet(serving_predictors, TWO_NODES)
    nodes[1].frontend.submit("simple", 8, arrival_s=0.0)
    with pytest.raises(SchedulerError, match="node 'node-b'.*own"):
        ClusterRouter(nodes)


def test_drop_device_readmits_on_the_same_node(serving_predictors, monkeypatch):
    router = ClusterRouter(
        build_fleet(serving_predictors, TWO_NODES), resilience=RESILIENCE
    )
    checked = watch_readmits(router, monkeypatch)
    # A full batch dispatches at arrival and runs on the dGPU until ~9 ms.
    response, calls = submit_watched(router, "mnist-small", batch=4096)
    FaultInjector(router).drop_device(0.002, "node-a", "dgpu")
    router.run()
    assert checked == [response]
    assert response.device != "dgpu"
    assert_resolved_once(router, response, calls, "node-a", 1)


def test_partition_split_readmits_on_the_same_node(
    serving_predictors, monkeypatch
):
    router = ClusterRouter(
        build_fleet(serving_predictors, TWO_NODES), resilience=RESILIENCE
    )
    accel = PartitionedAccelerator(
        router.node("node-a").frontend, PartitionableDeviceSpec(DGPU_GTX_1080TI)
    )
    checked = watch_readmits(router, monkeypatch)
    response, calls = submit_watched(router, "mnist-small", batch=4096)
    router.loop.schedule(0.002, lambda _loop: accel.set_mode(2))
    router.run()
    assert accel.n_readmitted == 1 and checked == [response]
    assert_resolved_once(router, response, calls, "node-a", 1)


def test_router_shed_resolves_once(serving_predictors):
    router = ClusterRouter(build_fleet(serving_predictors, TWO_NODES))
    for name in ("node-a", "node-b"):
        router.drain_node(name)
    response, calls = submit_watched(router)
    router.run()
    assert response.shed_reason == "no_active_node"
    assert_resolved_once(router, response, calls, None, 0, status="shed")
