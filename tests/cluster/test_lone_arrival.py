"""A lone arrival runs inside its route event unless something ties with it.

When no other live event is due at a routed arrival's instant, the
router delivers it on the chosen node right away (and least-ECT's probed
delay feeds admission); otherwise it schedules the node's arrival event
and lets the tied events fire first.  Each case below ties a lone arrival
with one kind of event — a coalescer flush timer, a batch completion, an
injector throttle or crash, a heartbeat — under resilience timeouts, and
replays it three ways: through :class:`~tests.replay_oracle.TwoEventRouter`
(always two events) and through the real router, by per-request
``submit_request`` and by ``feed_requests``.  Outcomes, resolution-hook
order, admission counters and the router's event log must equal the
reference, and the arrivals whose event was scheduled must be exactly the
tied ones.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterRouter, NodeSpec
from repro.faults import FaultInjector, ResilienceConfig
from repro.serving import ServingFrontend, SLOConfig
from repro.workloads.requests import InferenceRequest
from tests.cluster.conftest import build_fleet
from tests.replay_oracle import TwoEventRouter, cluster_signature, recorded_resolutions

MAX_WAIT_S = 0.005
SLO = SLOConfig(
    deadline_s=0.3, max_queue_depth=64, max_batch=4096, max_wait_s=MAX_WAIT_S
)
#: Timeouts armed on every route; heartbeats only where a case schedules them.
RESILIENCE = ResilienceConfig(
    timeout_s=0.05, heartbeat_every_s=0.01, breaker_cooldown_s=0.02, seed=3
)
NODES = (NodeSpec("node-a"), NodeSpec("node-b"))

#: (router class, ingestion): the two-event reference first.
REPLAYS = (
    (TwoEventRouter, "submit"),
    (ClusterRouter, "submit"),
    (ClusterRouter, "feed"),
)


def request(rid: int, t: float, batch: int = 8, model: str = "simple"):
    return InferenceRequest(
        request_id=rid, arrival_s=t, model=model, batch=batch, deadline_s=t + 0.3
    )


def replay(predictors, monkeypatch, router_cls, ingest, requests, arm=None):
    """One replay: its signature, event log and scheduled-arrival ids."""
    scheduled = []
    deliver = ServingFrontend.deliver

    def recording(frontend, entry, _loop=None, est_delay=None):
        if _loop is not None:   # fired as the node's own arrival event
            scheduled.append(entry.request.request_id)
        return deliver(frontend, entry, _loop, est_delay)

    router = router_cls(
        build_fleet(predictors, NODES, default_slo=SLO),
        balancer="least-ect", resilience=RESILIENCE,
    )
    with monkeypatch.context() as patch:
        patch.setattr(ServingFrontend, "deliver", recording)
        with recorded_resolutions() as log:
            if ingest == "submit":
                for r in requests:
                    router.submit_request(r)
            else:
                router.feed_requests(requests)
            if arm is not None:
                arm(router)
            router.run()
    assert router.n_pending == 0
    signature = cluster_signature(router.result(), router, log)
    return signature, list(router.events), sorted(scheduled)


def check(predictors, monkeypatch, requests, tied, arm=None):
    """Every replay equals the reference; only ``tied`` arrivals scheduled."""
    runs = [
        replay(predictors, monkeypatch, cls, ingest, requests, arm)
        for cls, ingest in REPLAYS
    ]
    reference, events, scheduled = runs[0]
    assert scheduled == [r.request_id for r in requests]
    for signature, log, scheduled in runs[1:]:
        assert signature == reference
        assert log == events
        assert scheduled == sorted(tied)


def first_end_s(predictors, monkeypatch, requests) -> float:
    """When the first request's batch completes, replayed on its own."""
    (rows, *_), _, _ = replay(
        predictors, monkeypatch, TwoEventRouter, "submit", requests
    )
    return rows[0][7]


class TestTies:
    def test_flush_timer(self, serving_predictors, monkeypatch):
        # The second arrival lands on the first one's flush instant.
        requests = [request(0, 0.0), request(1, MAX_WAIT_S)]
        check(serving_predictors, monkeypatch, requests, tied=[1])

    def test_batch_completion(self, serving_predictors, monkeypatch):
        first = [request(0, 0.0, batch=2048)]
        end = first_end_s(serving_predictors, monkeypatch, first)
        assert end > MAX_WAIT_S
        requests = first + [request(1, end, batch=64)]
        check(serving_predictors, monkeypatch, requests, tied=[1])

    @pytest.mark.parametrize("fault", ["throttle", "crash"])
    def test_injector_event(self, serving_predictors, monkeypatch, fault):
        t = 0.0123

        def arm(router):
            router.schedule_health(0.2)
            injector = FaultInjector(router)
            if fault == "throttle":
                injector.throttle_device(t, "node-a", "cpu", 4.0, duration_s=0.02)
            else:
                injector.crash_node(t, "node-a")
                injector.recover_node(0.0571, "node-a")

        requests = [
            request(0, 0.0),
            request(1, 0.0031, batch=512),
            request(2, t, batch=512),
            request(3, 0.0257, batch=64),
        ]
        check(serving_predictors, monkeypatch, requests, tied=[2], arm=arm)

    def test_heartbeat(self, serving_predictors, monkeypatch):
        every = RESILIENCE.heartbeat_every_s
        requests = [request(0, 0.0), request(1, every), request(2, 0.0137)]
        check(
            serving_predictors, monkeypatch, requests, tied=[1],
            arm=lambda router: router.schedule_health(0.05),
        )

    def test_cancelled_event_does_not_tie(self, serving_predictors, monkeypatch):
        # A crash aborts the first batch's launch: its completion event is
        # cancelled, so an arrival at that instant has nothing due with it.
        first = [request(0, 0.0, batch=2048)]
        end = first_end_s(serving_predictors, monkeypatch, first)
        crash_at = (MAX_WAIT_S + end) / 2

        def arm(router):
            FaultInjector(router).crash_node(crash_at, "node-a")

        requests = first + [request(1, end, batch=64)]
        check(serving_predictors, monkeypatch, requests, tied=[], arm=arm)


def test_tie_free_trace_runs_every_arrival_in_its_route_event(
    serving_predictors, monkeypatch
):
    times = (0.0, 0.00131, 0.00297, 0.00413, 0.00788, 0.0119, 0.0161)
    requests = [
        request(i, t, batch=8 << (i % 4), model=("simple", "mnist-small")[i % 2])
        for i, t in enumerate(times)
    ]
    check(serving_predictors, monkeypatch, requests, tied=[])
