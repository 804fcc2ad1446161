"""Fleet-level decision-cache guarantees.

The per-node cache equivalence is pinned in tests/sched; here the claim is
end-to-end: a least-ECT fleet riding out an overload must produce the
*same simulated-time story* — per-request statuses, nodes, devices,
latencies, tail percentiles, shed rate — as the same fleet placing
through the uncached reference walk (``tests/placement_oracle.py``),
while the telemetry rollup actually surfaces the hit counters.  A drain
mid-trace must leave least-ECT's decisions equal to the no-prime oracle's.
"""

import pytest

from repro.cluster import ClusterRouter, LeastECTBalancer
from repro.faults import FaultInjector
from repro.nn.zoo import MNIST_SMALL
from repro.sched.policies import Policy
from repro.sched.predictor import DevicePredictor
from repro.shard.digest import digest_responses
from repro.workloads.requests import make_trace
from repro.workloads.streams import OverloadStream
from tests.cluster.conftest import NoPrimeLeastECT, build_fleet
from tests.placement_oracle import use_uncached


@pytest.fixture(scope="module")
def flood_trace():
    stream = OverloadStream(
        horizon_s=2.0,
        slo_s=0.3,
        normal_rate_hz=20,
        overload_rate_hz=2000,
        overload_start_s=0.5,
        overload_end_s=1.0,
        normal_batch=64,
        overload_batch=64,
    )
    return make_trace(stream, [MNIST_SMALL], rng=7)


def run_fleet(serving_predictors, trace, uncached=False, script=None):
    """Replay ``trace`` over a fresh least-ECT fleet; ``script(router)``
    arms mid-flood events first."""
    fleet = build_fleet(serving_predictors)
    if uncached:
        use_uncached(fleet)
    router = ClusterRouter(fleet, balancer="least-ect", rng=123)
    if script is not None:
        script(router)
    return router, router.serve_trace(trace)


def outcomes(result):
    """Per-response outcome tuples (latency exact, not approx)."""
    return [
        (
            r.request.request_id, r.status, r.node_name, r.device,
            r.shed_reason, r.latency_s if r.served else None,
        )
        for r in result.responses
    ]


def assert_rollup_sums_nodes(router):
    """Every fleet counter is the sum of the nodes' own."""
    rollup = router.decision_cache_stats()
    per_node = [n.frontend.backlog.cache_stats() for n in router.nodes]
    assert set(rollup) == set(per_node[0])
    for key in rollup:
        if key != "hit_rate":
            assert rollup[key] == sum(s[key] for s in per_node), key
    return rollup


class TestClusterEquivalence:
    def test_cache_changes_no_simulated_result(self, serving_predictors, flood_trace):
        cached_router, cached = run_fleet(serving_predictors, flood_trace)
        plain_router, plain = run_fleet(
            serving_predictors, flood_trace, uncached=True
        )
        assert cached_router.decision_cache_stats()["hits"] > 0
        assert plain_router.decision_cache_stats()["hits"] == 0

        assert len(cached.responses) == len(plain.responses)
        for rc, rp in zip(cached.responses, plain.responses):
            assert rc.request.request_id == rp.request.request_id
            assert rc.status == rp.status
            assert rc.node_name == rp.node_name
            assert rc.device == rp.device
            assert rc.shed_reason == rp.shed_reason
            if rc.served:
                assert rc.latency_s == rp.latency_s  # exact, not approx

        assert cached.shed_rate == plain.shed_rate
        for q in (50.0, 95.0, 99.0):
            assert cached.latency_percentile(q) == plain.latency_percentile(q)
        assert cached.device_shares() == plain.device_shares()
        assert cached.node_shares() == plain.node_shares()

    def test_hit_rate_surfaced_in_fleet_stats(self, serving_predictors, flood_trace):
        router, _ = run_fleet(serving_predictors, flood_trace)
        rollup = router.stats()["decision_cache"]
        assert rollup["hits"] > rollup["misses"]
        assert rollup["hit_rate"] > 0.5
        assert rollup["feedback_invalidations"] > 0
        # The rollup is the sum over the nodes' own counters.
        assert assert_rollup_sums_nodes(router) == rollup
        assert rollup["hit_rate"] == rollup["hits"] / (
            rollup["hits"] + rollup["misses"]
        )


class TestInvalidationPathsMatchUncached:
    """The two invalidation paths a fault or a cascade drives mid-flood —
    the device mask and a per-model stage preference — must leave every
    outcome equal to the uncached reference fleet's."""

    def compare(self, serving_predictors, flood_trace, script):
        router, cached = run_fleet(serving_predictors, flood_trace, script=script)
        _, plain = run_fleet(
            serving_predictors, flood_trace, uncached=True, script=script
        )
        assert outcomes(cached) == outcomes(plain)
        return assert_rollup_sums_nodes(router)

    def test_device_drop_and_restore(self, serving_predictors, flood_trace):
        def script(router):
            injector = FaultInjector(router)
            injector.drop_device(0.6, "node-a", "dgpu")
            injector.restore_device(0.8, "node-a", "dgpu")

        rollup = self.compare(serving_predictors, flood_trace, script)
        assert rollup["mask_invalidations"] > 0

    def test_stage_preference_set_and_cleared(
        self, serving_predictors, flood_trace
    ):
        def script(router):
            fe = router.node("node-b").frontend
            for t, classes in ((0.6, ("cpu", "igpu")), (0.8, None)):
                router.loop.schedule(
                    t,
                    lambda _l, c=classes: fe.backlog.set_model_preference(
                        MNIST_SMALL.name, c
                    ),
                )

        rollup = self.compare(serving_predictors, flood_trace, script)
        assert rollup["preference_invalidations"] > 0


class TestOnlineClusterEquivalence:
    """The fleet-level cache guarantee must survive the online refresh
    loop.  A silent mid-flood thermal throttle drives real drift flags,
    fallback routing, and live refits across the fleet's shared
    OnlinePredictor — and cached / uncached-reference runs (each with its
    own identically-built predictor) must still tell the same
    simulated-time story, response for response."""

    def run_online_fleet(self, online_dataset, trace, uncached=False):
        from repro.sched.online import OnlineConfig, OnlinePredictor
        from repro.sched.policies import Policy
        from repro.sched.predictor import DevicePredictor
        from tests.serving.conftest import SERVING_SPECS

        base = DevicePredictor(Policy.THROUGHPUT).fit(online_dataset)
        online = OnlinePredictor(
            base, SERVING_SPECS, online_dataset, OnlineConfig(refit_interval=32)
        )
        fleet = build_fleet({Policy.THROUGHPUT: online})
        if uncached:
            use_uncached(fleet)
        router = ClusterRouter(fleet, balancer="least-ect", rng=123)
        injector = FaultInjector(router)
        # Both full nodes lose dGPU speed silently: the frozen forest
        # would keep ranking dGPU first, the online layer must notice.
        injector.throttle_device(0.6, "node-a", "dgpu", 8.0, duration_s=0.8)
        injector.throttle_device(0.6, "node-b", "dgpu", 8.0, duration_s=0.8)
        return router, online, router.serve_trace(trace)

    def test_drift_campaign_is_bit_identical_to_uncached(
        self, online_dataset, flood_trace
    ):
        cached_router, cached_online, cached = self.run_online_fleet(
            online_dataset, flood_trace
        )
        plain_router, plain_online, plain = self.run_online_fleet(
            online_dataset, flood_trace, uncached=True
        )

        # The campaign actually exercised the online path...
        assert cached_online.n_drift_flags >= 1
        assert cached_online.n_refits >= 1
        fleet_online = cached_router.stats()["online"]
        assert fleet_online["fallback_decisions"] > 0
        assert fleet_online["drift_flags"] >= 1
        assert fleet_online["refits"] >= 1
        # ...identically on both sides...
        assert cached_online.n_drift_flags == plain_online.n_drift_flags
        assert cached_online.n_refits == plain_online.n_refits
        assert cached_online.n_recoveries == plain_online.n_recoveries
        # ...and the cache changed nothing observable.
        assert cached_router.decision_cache_stats()["hits"] > 0
        assert len(cached.responses) == len(plain.responses)
        for rc, rp in zip(cached.responses, plain.responses):
            assert rc.request.request_id == rp.request.request_id
            assert rc.status == rp.status
            assert rc.node_name == rp.node_name
            assert rc.device == rp.device
            assert rc.shed_reason == rp.shed_reason
            if rc.served:
                assert rc.latency_s == rp.latency_s

    def test_plain_predictor_fleet_has_no_online_block(
        self, serving_predictors, flood_trace
    ):
        router, _ = run_fleet(serving_predictors, flood_trace)
        assert "online" not in router.stats()


class TestMembershipInvalidation:
    def test_least_ect_memo_survives_invalidate_correctly(self, online_dataset):
        """A drain mid-trace still resolves every request, and every
        decision matches the no-prime oracle."""
        stream = OverloadStream(
            horizon_s=0.5, slo_s=0.3, normal_rate_hz=200,
            overload_rate_hz=2000, overload_start_s=0.1, overload_end_s=0.2,
            normal_batch=64, overload_batch=256,
        )
        trace = make_trace(stream, [MNIST_SMALL], rng=3)
        digests = []
        for balancer in (LeastECTBalancer(), NoPrimeLeastECT()):
            # A fresh forest per run: the oracle must evaluate lazily.
            predictors = {
                Policy.THROUGHPUT: DevicePredictor(Policy.THROUGHPUT).fit(
                    online_dataset
                )
            }
            router = ClusterRouter(build_fleet(predictors), balancer=balancer)
            router.loop.schedule(0.15, lambda _loop, r=router: r.drain_node("node-a"))
            result = router.serve_trace(trace)
            assert [e.kind for e in result.events].count("drain_start") == 1
            assert router.n_rerouted > 0
            assert all(r.done for r in result.responses)
            assert len(result.served) + len(result.shed) == len(trace)
            digests.append(digest_responses(result.responses))
        assert digests[0] == digests[1]
