"""The router's running ledger counters equal a recount of its responses.

``goodput()`` and ``n_pending`` read counters updated once per response
at its single resolution point (``ClusterResponse._fire_done``), not by
scanning the ledger.  A recount after retries, crashes and drains — and
mid-run, while work is still pending — must agree exactly.
"""

from __future__ import annotations

from repro.cluster import ClusterRouter
from repro.faults import FaultInjector, ResilienceConfig
from tests.cluster.conftest import build_fleet

RESILIENCE = ResilienceConfig(
    timeout_s=0.05, heartbeat_every_s=0.01, breaker_cooldown_s=0.05,
    breaker_max_cooldown_s=0.4, seed=11,
)


def recount(router) -> "tuple[int, float]":
    """(pending, goodput) recomputed by scanning the router's ledger."""
    responses = router.result().responses
    resolved = [r for r in responses if r.done]
    good = sum(1 for r in resolved if r.served and r.deadline_met is not False)
    goodput = good / len(resolved) if resolved else 1.0
    return len(responses) - len(resolved), goodput


def assert_counters_match(router) -> None:
    pending, goodput = recount(router)
    assert router.n_pending == pending
    assert router.goodput() == goodput


def test_counters_match_after_faults_and_retries(serving_predictors):
    router = ClusterRouter(
        build_fleet(serving_predictors), balancer="least-ect",
        resilience=RESILIENCE,
    )
    assert_counters_match(router)
    injector = FaultInjector(router)
    injector.inject_errors(0.0, "node-a", rate=1.0, duration_s=0.05, seed=1)
    injector.crash_node(0.02, "node-b")
    injector.recover_node(0.2, "node-b")
    # Throttles after admission make some served requests late.
    for node in ("node-c", "node-d"):
        injector.throttle_device(0.002, node, "cpu", 4.0, duration_s=0.2)
    responses = [
        router.submit(
            "simple" if i % 2 else "mnist-small", 64 + i,
            deadline_s=0.03 if i % 3 else 2.0, arrival_s=0.001 * i,
        )
        for i in range(60)
    ]
    router.schedule_health(0.5)
    router.run(until=0.03)
    assert router.n_pending > 0
    assert_counters_match(router)
    router.run()
    res = router.telemetry.resilience
    assert res.n_retries >= 1 and res.n_crashes_detected == 1
    assert any(r.served and r.deadline_met is False for r in responses)
    assert router.n_pending == 0
    assert 0.0 < router.goodput() < 1.0
    assert_counters_match(router)


def test_counters_match_after_a_drain(serving_predictors):
    router = ClusterRouter(build_fleet(serving_predictors), balancer="least-ect")
    for i in range(40):
        router.submit("mnist-small", 256, deadline_s=0.05, arrival_s=0.0005 * i)
    router.loop.schedule(0.005, lambda _loop: router.drain_node("node-a"))
    router.run(until=0.01)
    assert_counters_match(router)
    router.run()
    assert router.n_rerouted > 0
    assert_counters_match(router)
