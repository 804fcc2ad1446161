"""The cascade executor over a cluster router: drains, crashes, fallbacks.

Escalations are first-class cluster requests, so everything the router
guarantees for plain traffic (exactly-once resolution, drain re-routing,
crash re-adoption) must hold when the traffic is cascade stages.
"""

from __future__ import annotations

import pytest

from repro.cascade import (
    CascadeExecutor,
    ThresholdController,
    calibrated_controller_config,
    default_cascade,
)
from repro.cluster import ClusterRouter, NodeSpec
from repro.faults import FaultInjector, ResilienceConfig
from repro.serving import SLOConfig
from repro.workloads.requests import InferenceRequest

from tests.cascade.conftest import build_cascade_fleet
from tests.cluster.test_ledger_counters import assert_counters_match
from tests.replay_oracle import cluster_signature, recorded_resolutions

#: The fast defensive stack used across fault tests (tests/cluster).
RESILIENCE = ResilienceConfig(
    timeout_s=0.05, heartbeat_every_s=0.01, breaker_cooldown_s=0.05,
    breaker_max_cooldown_s=0.4, seed=11,
)


def make_router(predictors, node_specs=None, **router_kwargs) -> ClusterRouter:
    kwargs = {} if node_specs is None else {"node_specs": node_specs}
    return ClusterRouter(build_cascade_fleet(predictors, **kwargs), **router_kwargs)


def make_executor(router, profile, threshold=None, **kwargs) -> CascadeExecutor:
    theta = profile.stage(0).quantile("top1", 0.5) if threshold is None else threshold
    return CascadeExecutor(
        router, default_cascade(threshold=theta), profile, **kwargs
    )


class TestClusterServing:
    def test_chains_resolve_across_the_fleet(
        self, cascade_predictors, cascade_profile
    ):
        router = make_router(cascade_predictors)
        ex = make_executor(router, cascade_profile, rng=7)
        for i in range(20):
            ex.submit(batch=32, arrival_s=0.005 * i)
        router.run()
        result = ex.result()
        assert len(result.served) == 20
        assert ex.n_pending == 0
        assert sum(result.exit_counts().values()) == 20 * 32

    def test_biases_installed_on_every_node(
        self, cascade_predictors, cascade_profile
    ):
        router = make_router(cascade_predictors)
        make_executor(router, cascade_profile)
        for node in router.nodes:
            backlog = node.frontend.backlog
            assert backlog.model_preference("mnist-small") == ("cpu", "igpu")
            assert backlog.model_preference("mnist-deep") == ("dgpu",)

    def test_cascade_rides_in_fleet_snapshot(
        self, cascade_predictors, cascade_profile
    ):
        router = make_router(cascade_predictors)
        ex = make_executor(router, cascade_profile, rng=7)
        ex.submit(batch=64)
        router.run()
        snap = router.telemetry.snapshot()
        assert snap["cascade"]["name"] == ex.cascade.name
        assert snap["cascade"]["resolved"] == 1


class TestAdaptiveControl:
    def test_controller_keys_are_node_names(
        self, cascade_predictors, cascade_profile
    ):
        router = make_router(cascade_predictors)
        controller = ThresholdController(
            calibrated_controller_config(cascade_profile)
        )
        ex = make_executor(
            router, cascade_profile, controller=controller, rng=7
        )
        for i in range(10):
            ex.submit(batch=32, arrival_s=0.005 * i)
        ex.schedule_control(until=0.5, every_s=0.05)
        router.run()
        moved = {key for _t, key, _theta in controller.history}
        assert moved == {node.name for node in router.nodes}

    def test_per_node_thresholds_diverge_under_skewed_load(
        self, cascade_predictors, cascade_profile
    ):
        # node-a idles (calm -> raises); node-b is flooded through the
        # executor's normal path until its queue passes the watermark.
        router = make_router(cascade_predictors)
        cfg = calibrated_controller_config(
            cascade_profile, high_watermark=8, low_watermark=2
        )
        controller = ThresholdController(cfg)
        ex = make_executor(router, cascade_profile, controller=controller, rng=7)
        node_b = router.node("node-b")
        loop = router.loop

        def tick_with_synthetic_depths(_loop):
            now = loop.now
            for node in router.nodes:
                depth = 32 if node is node_b else 0
                controller.tick(
                    node.name, now, depth=depth, recent_p99_s=0.01,
                    slo_s=ex.slo_s, shed_delta=0,
                )

        loop.schedule_repeating(0.01, tick_with_synthetic_depths, until=0.3)
        ex.submit(batch=32)
        router.run()
        assert controller.threshold("node-b") < cfg.initial
        assert controller.threshold("node-a") > cfg.initial


class TestDrains:
    def test_drain_mid_run_keeps_exactly_once(
        self, cascade_predictors, cascade_profile
    ):
        router = make_router(cascade_predictors)
        ex = make_executor(router, cascade_profile, rng=7)
        for i in range(16):
            ex.submit(batch=32, arrival_s=0.002 * i)
        router.loop.schedule(0.01, lambda _l: router.drain_node("node-a"))
        router.run()
        result = ex.result()
        # Every chain resolves exactly once; with node-b still active no
        # chain is lost outright.
        assert all(c.done for c in result.chains)
        assert len(result.chains) == 16
        assert ex.n_pending == 0

    def test_escalation_shed_falls_back_to_cheap_answer(
        self, cascade_predictors, cascade_profile
    ):
        # Single node, θ = 1.0 (everything escalates).  The node drains
        # while stage 0 is in flight: the flight lands, but the follow-up
        # finds no active node and sheds — the chain falls back to the
        # cheap stage's answer instead of losing the samples.
        router = make_router(
            cascade_predictors, node_specs=(NodeSpec("node-a"),)
        )
        ex = make_executor(router, cascade_profile, threshold=1.0, rng=7)
        chain = ex.submit(batch=16)
        router.loop.schedule(0.006, lambda _l: router.drain_node("node-a"))
        router.run()
        assert chain.served
        assert chain.fallback
        assert chain.answer_stage == 0
        assert chain.exits == {0: 16}
        assert ex.telemetry.n_fallback_chains == 1

    def test_stage_zero_shed_sheds_the_chain(
        self, cascade_predictors, cascade_profile
    ):
        # Drain the only node before the chain arrives: stage 0 itself is
        # shed (no active node), so the chain has no answer at all.
        router = make_router(
            cascade_predictors, node_specs=(NodeSpec("node-a"),)
        )
        ex = make_executor(router, cascade_profile, rng=7)
        router.drain_node("node-a")
        chain = ex.submit(batch=16)
        router.run()
        assert chain.status == "shed"
        assert chain.shed_reason == "no_active_node"
        assert chain.exits == {}
        assert ex.telemetry.n_shed_chains == 1
        assert ex.result().goodput() == 0.0


class TestCrashes:
    def test_crash_and_recovery_resolve_every_chain(
        self, cascade_predictors, cascade_profile
    ):
        router = make_router(cascade_predictors, resilience=RESILIENCE)
        ex = make_executor(router, cascade_profile, rng=7)
        for i in range(16):
            ex.submit(batch=32, arrival_s=0.002 * i)
        injector = FaultInjector(router)
        injector.crash_node(0.01, "node-a")
        injector.recover_node(0.2, "node-a")
        router.run()
        result = ex.result()
        assert all(c.done for c in result.chains)
        assert ex.n_pending == 0
        # Exactly-once accounting: every submitted sample is either
        # answered at some stage or in a chain that shed whole.
        answered = sum(result.exit_counts().values())
        shed_samples = sum(c.batch for c in result.shed)
        assert answered + shed_samples == 16 * 32


class TestLedgerCounters:
    def test_router_counters_match_a_recount(
        self, cascade_predictors, cascade_profile
    ):
        # Cascades own every response's on_done hook; the router's running
        # counters must still see each resolution (escalations included).
        router = make_router(cascade_predictors, resilience=RESILIENCE)
        ex = make_executor(router, cascade_profile, rng=7)
        for i in range(16):
            ex.submit(batch=32, arrival_s=0.002 * i)
        FaultInjector(router).crash_node(0.01, "node-a")
        router.schedule_health(0.5)
        router.run(until=0.012)
        assert router.n_pending > 0
        assert_counters_match(router)
        router.run()
        assert len(router.result().responses) > 16    # escalations routed
        assert router.n_pending == 0
        assert_counters_match(router)


class TestMidRunResubmission:
    """Shed hooks that fire inside a delivered run and resubmit.

    Bursts of same-instant arrivals overrun queues capped far below the
    burst, so admission sheds requests in the middle of a delivery run.
    Each shed's hook reads every node's queue load and resubmits the
    batch through the cascade at that instant.  Fed through the trace
    cursor (``feed_requests``) or one ``submit_request`` each, the hooks
    must fire in the same order and see the same queues, and every
    request and chain must resolve the same way.
    """

    SLO = SLOConfig(
        deadline_s=0.05, max_queue_depth=3, max_batch=256, max_wait_s=0.002
    )

    @staticmethod
    def bursts(n_bursts=5, size=30):
        models = ("mnist-small", "mnist-deep")
        requests = []
        for b in range(n_bursts):
            t = 0.003 * b
            for k in range(size):
                requests.append(InferenceRequest(
                    request_id=len(requests), arrival_s=t,
                    model=models[(k // 3) % 2], batch=(8, 32, 64)[k % 3],
                ))
        return requests

    @pytest.mark.parametrize("balancer", ["round-robin", "least-ect"])
    def test_hooks_see_every_queue_and_resolve_alike(
        self, cascade_predictors, cascade_profile, balancer
    ):
        trace = self.bursts()
        outcomes = []
        for feed in ("per_request", "cursor"):
            router = ClusterRouter(
                build_cascade_fleet(cascade_predictors, default_slo=self.SLO),
                balancer=balancer, rng=7,
            )
            ex = make_executor(router, cascade_profile, rng=7)
            seen = []

            def on_done(response, router=router, ex=ex, seen=seen):
                seen.append((
                    response.request.request_id, response.status,
                    router.loop.now,
                    tuple(n.frontend.queued for n in router.nodes),
                    tuple(n.frontend.outstanding_samples for n in router.nodes),
                ))
                if response.status == "shed":
                    ex.submit(batch=response.request.batch)

            with recorded_resolutions() as log:
                if feed == "cursor":
                    responses = router.feed_requests(trace)
                else:
                    responses = [router.submit_request(r) for r in trace]
                for response in responses:
                    response.on_done = on_done
                router.run()
            assert router.n_pending == 0
            assert ex.n_pending == 0
            chains = [
                (c.chain_id, c.status, c.shed_reason, c.end_s,
                 c.answer_stage, dict(c.exits), c.fallback)
                for c in ex.chains
            ]
            outcomes.append((
                cluster_signature(router.result(), router, log), seen, chains
            ))
        assert outcomes[0] == outcomes[1]
        shed_in_bursts = [row for row in outcomes[0][1] if row[1] == "shed"]
        assert len(shed_in_bursts) == len(outcomes[0][2]) > 0
