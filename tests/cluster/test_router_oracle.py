"""Router ``serve_trace`` against its two-events-per-request oracle.

``serve_trace`` routes each run of same-timestamp arrivals in one
balancer pass (pure policies probe once per (model, batch) cell) and
delivers the routed entries in a single follow-up event; a lone arrival
is delivered inside its route event when nothing else is due then.
Every balancing policy — including the stateful ones that take no memo —
must produce the responses and fleet telemetry of one ``submit_request``
per arrival through :class:`~tests.replay_oracle.TwoEventRouter` (a
route event, then an arrival event), digit for digit, and so must
per-request ``submit_request`` on the real router; the equivalence must
survive a chaos campaign with resilience armed.
"""

import pytest

from repro.cluster import ClusterRouter
from repro.errors import SchedulerError
from repro.faults import FaultInjector, ResilienceConfig
from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.workloads import (
    FlashCrowdStream,
    MixedTrace,
    MMPPStream,
    RequestTrace,
    TraceComponent,
)
from repro.workloads.requests import InferenceRequest
from tests.cluster.conftest import build_fleet
from tests.replay_oracle import ROUTER_REPLAYS, cluster_signature

POLICIES = [
    "round-robin",
    "least-outstanding",
    "join-shortest-queue",
    "power-of-two",
    "least-ect",
]


def mixed_trace(horizon_s: float = 1.0, seed: int = 17) -> RequestTrace:
    return MixedTrace(components=(
        TraceComponent(
            process=MMPPStream(
                horizon_s=horizon_s, slo_s=0.3,
                rates_hz=(500.0, 3_000.0), mean_sojourn_s=(0.3, 0.1),
            ),
            models=(MNIST_SMALL.name, SIMPLE.name),
        ),
        TraceComponent(
            process=FlashCrowdStream(
                horizon_s=horizon_s, slo_s=0.2,
                base_rate_hz=200.0, peak_rate_hz=2_000.0,
                spike_at_s=horizon_s * 0.5, ramp_s=0.1, decay_tau_s=0.3,
            ),
            models=(SIMPLE.name,),
        ),
    )).build(seed)


class TestOracleEquivalence:
    @pytest.mark.parametrize("balancer", POLICIES)
    def test_every_policy_is_digit_identical(self, serving_predictors, balancer):
        trace = mixed_trace()
        outcomes = []
        for router_cls, replay in ROUTER_REPLAYS:
            router = router_cls(
                build_fleet(serving_predictors), balancer=balancer, rng=123
            )
            result = replay(router, trace)
            assert router.n_pending == 0
            outcomes.append(cluster_signature(result))
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]

    def test_chaos_campaign_is_digit_identical(self, serving_predictors):
        resilience = ResilienceConfig(
            timeout_s=0.05,
            heartbeat_every_s=0.01,
            breaker_cooldown_s=0.05,
            breaker_max_cooldown_s=0.4,
            seed=11,
        )
        trace = mixed_trace(horizon_s=0.8, seed=29)
        outcomes = []
        for router_cls, replay in ROUTER_REPLAYS:
            router = router_cls(
                build_fleet(serving_predictors),
                balancer="least-ect", rng=123, resilience=resilience,
            )
            injector = FaultInjector(router)
            injector.crash_node(0.1, "node-a")
            injector.recover_node(0.4, "node-a")
            injector.inject_errors(
                0.2, "node-b", rate=0.5, duration_s=0.2, seed=5
            )
            result = replay(router, trace)
            assert all(r.done for r in result.responses)
            outcomes.append(cluster_signature(result))
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]

    def test_empty_trace(self, serving_predictors):
        router = ClusterRouter(build_fleet(serving_predictors), rng=123)
        result = router.serve_trace(RequestTrace(requests=()))
        assert len(result.responses) == 0
        assert router.n_pending == 0


def requests_at(*times):
    return [
        InferenceRequest(request_id=i, arrival_s=t, model=SIMPLE.name, batch=8)
        for i, t in enumerate(times)
    ]


class TestIngestionGuards:
    @pytest.mark.parametrize("ingest", ["serve_trace", "feed_requests"])
    def test_out_of_order_arrivals_rejected_before_ledgering(
        self, serving_predictors, ingest
    ):
        router = ClusterRouter(build_fleet(serving_predictors), rng=123)
        out_of_order = r"arrival_s\[2\]=0\.2 precedes arrival_s\[1\]=0\.5"
        with pytest.raises(ValueError, match=out_of_order):
            getattr(router, ingest)(requests_at(0.0, 0.5, 0.2, 0.6))
        assert router.n_pending == 0
        assert router.result().responses == []
        assert router.loop.now == 0.0
        result = router.serve_trace(requests_at(0.0, 0.2, 0.5, 0.6))
        assert len(result.responses) == 4
        assert all(r.done for r in result.responses)
        assert router.n_pending == 0

    @pytest.mark.parametrize("bad, error", [
        (dict(model="nope"), "'nope' is not served"),
        (dict(request_id=2), "duplicate request_id 2"),
        (dict(request_id=7), "duplicate request_id 7"),
    ], ids=["unknown-model", "duplicate-in-trace", "duplicate-in-ledger"])
    def test_rejected_trace_ledgers_nothing(
        self, serving_predictors, bad, error
    ):
        router = ClusterRouter(build_fleet(serving_predictors), rng=123)
        ledgered = router.submit_request(InferenceRequest(
            request_id=7, arrival_s=0.0, model=SIMPLE.name, batch=8,
        ))
        trace = requests_at(0.0, 0.1, 0.2, 0.3, 0.4)
        sixth = dict(request_id=5, arrival_s=0.5, model=SIMPLE.name, batch=8)
        sixth.update(bad)
        with pytest.raises(SchedulerError, match=error):
            router.feed_requests([*trace, InferenceRequest(**sixth)])
        assert router.n_pending == 1
        assert router.result().responses == [ledgered]
        # The rejected ids are free: the same requests feed cleanly.
        assert len(router.feed_requests(trace)) == 5
        router.run()
        assert router.n_pending == 0
        assert len(router.result().responses) == 6
        assert all(r.done for r in router.result().responses)

    def test_arrival_before_the_clock_rejected(self, serving_predictors):
        router = ClusterRouter(build_fleet(serving_predictors), rng=123)
        router.run(until=1.0)
        with pytest.raises(ValueError, match=r"arrival_s\[0\]=0\.5.*now=1\.0"):
            router.serve_trace(requests_at(0.5, 1.5))
        assert router.n_pending == 0 and router.loop.now == 1.0

    def test_per_event_keyword_points_to_submit_request(self, serving_predictors):
        router = ClusterRouter(build_fleet(serving_predictors), rng=123)
        with pytest.raises(ValueError, match="vectorized.*submit_request"):
            router.serve_trace(requests_at(0.0), vectorized=False)
        assert router.n_pending == 0
