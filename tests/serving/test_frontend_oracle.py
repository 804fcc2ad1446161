"""A standalone frontend is served as a one-node fleet: one tie rule.

``ServingFrontend.serve_trace``, ``submit_request`` and ``submit`` hand
their requests to the frontend's ingress, a one-node
:class:`~repro.cluster.ClusterRouter`.  Every standalone replay must
therefore resolve each request digit for digit as a one-node router over
an identically configured frontend does — same status, device, virtual
end time, telemetry and admission counters — including with a
partitioned accelerator repartitioning mid-flood, and on a 1 ms grid
trace whose arrivals tie with flush timers.  The router's two-event
reference (:class:`~tests.replay_oracle.TwoEventRouter`) is the oracle.

The tie rule itself: an arrival's route step fires under its reserved
seq, and its admission runs after every event already due at that
instant, in submission order.
"""

import pytest

from repro.cluster import ClusterNode, ClusterRouter
from repro.errors import SchedulerError
from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.serving import ServingFrontend, ServingResponse, ServingResult, SLOConfig
from repro.serving.frontend import INGRESS_NODE
from repro.workloads import (
    FlashCrowdStream,
    MixedTrace,
    MMPPStream,
    RequestTrace,
    SessionStream,
    TraceComponent,
)
from repro.workloads.requests import InferenceRequest
from tests.replay_oracle import ROUTER_REPLAYS, serve_per_request, serving_signature
from tests.serving.conftest import SERVING_SPECS, build_scheduler

SLO = SLOConfig(
    deadline_s=0.3, max_queue_depth=64, max_batch=4096, max_wait_s=0.005
)


def mixed_trace(horizon_s: float = 1.0, seed: int = 13) -> RequestTrace:
    """MMPP + flash crowd + sessions, stamped on the streams' 1 ms grid."""
    return MixedTrace(components=(
        TraceComponent(
            process=MMPPStream(
                horizon_s=horizon_s, slo_s=0.3,
                rates_hz=(400.0, 3_000.0), mean_sojourn_s=(0.3, 0.1),
            ),
            models=(MNIST_SMALL.name, SIMPLE.name),
        ),
        TraceComponent(
            process=FlashCrowdStream(
                horizon_s=horizon_s, slo_s=0.2,
                base_rate_hz=150.0, peak_rate_hz=2_000.0,
                spike_at_s=horizon_s * 0.5, ramp_s=0.1, decay_tau_s=0.3,
            ),
            models=(SIMPLE.name,),
        ),
        TraceComponent(
            process=SessionStream(horizon_s=horizon_s, slo_s=0.4),
            models=(MNIST_SMALL.name,),
        ),
    )).build(seed)


def frontend(serving_predictors) -> ServingFrontend:
    return ServingFrontend(
        build_scheduler(serving_predictors), SERVING_SPECS, default_slo=SLO
    )


def one_node(router_cls, replay, balancer="round-robin"):
    """A replay of ``trace`` through a one-node router over ``fe``."""
    def run(fe, trace):
        router = router_cls([ClusterNode("solo", fe)], balancer=balancer)
        result = replay(router, trace)
        return ServingResult(responses=result.responses, telemetry=fe.telemetry)
    return run


#: The two-event one-node reference first, then every other replay.
REPLAYS = (
    *(one_node(cls, replay) for cls, replay in ROUTER_REPLAYS),
    serve_per_request,
    ServingFrontend.serve_trace,
)


def rows(result):
    return [(r.status, r.device, r.end_s) for r in result.responses]


class TestOracleEquivalence:
    def test_mixed_trace_is_digit_identical(self, serving_predictors):
        trace = mixed_trace()
        outcomes = []
        for replay in REPLAYS:
            fe = frontend(serving_predictors)
            result = replay(fe, trace)
            assert fe.n_pending == 0
            outcomes.append(serving_signature(result, fe))
        for outcome in outcomes[1:]:
            assert outcome == outcomes[0]

    def test_with_partitioned_accelerator_mid_flood(self, serving_predictors):
        from repro.hw.specs import DGPU_GTX_1080TI
        from repro.partition import (
            PartitionableDeviceSpec,
            PartitionedAccelerator,
        )

        trace = mixed_trace(horizon_s=0.6, seed=21)
        outcomes = []
        for replay in REPLAYS:
            fe = frontend(serving_predictors)
            accel = PartitionedAccelerator(
                fe, PartitionableDeviceSpec(DGPU_GTX_1080TI), start_mode=1
            )
            # Scripted split/merge while the flood is in flight; armed
            # before ingestion on every path, so ties resolve alike.
            fe.loop.schedule(0.15, lambda _l: accel.set_mode(4), label="script")
            fe.loop.schedule(0.35, lambda _l: accel.set_mode(2), label="script")
            result = replay(fe, trace)
            assert fe.n_pending == 0
            assert accel.n_repartitions == 2
            outcomes.append(serving_signature(result, fe))
        for outcome in outcomes[1:]:
            assert outcome == outcomes[0]

    @pytest.mark.parametrize("balancer", ["round-robin", "least-ect"])
    def test_grid_trace_matches_one_node_router(self, serving_predictors, balancer):
        trace = mixed_trace()
        times = [r.arrival_s for r in trace]
        assert len(set(times)) < len(times)   # same-instant runs
        alone = frontend(serving_predictors).serve_trace(trace)
        routed = one_node(ClusterRouter, ClusterRouter.serve_trace, balancer)(
            frontend(serving_predictors), trace
        )
        assert rows(alone) == rows(routed)
        assert {r.node_name for r in alone.responses} == {INGRESS_NODE}

    def test_empty_trace(self, serving_predictors):
        fe = frontend(serving_predictors)
        result = fe.serve_trace(RequestTrace(requests=()))
        assert len(result.responses) == 0
        assert fe.n_pending == 0

    def test_batch_api_matches_unbatched_delivery(self, serving_predictors):
        # register_request/deliver with an armed estimate memo must match
        # the same deliveries made one by one without the memo.
        requests = [
            InferenceRequest(
                request_id=i, arrival_s=0.0, model=SIMPLE.name, batch=64
            )
            for i in range(4)
        ]

        def run_once(batched: bool):
            fe = frontend(serving_predictors)
            responses = [ServingResponse(r) for r in requests]
            for response in responses:
                fe.register_request(response)
            if batched:
                assert fe.begin_arrival_batch([])
                assert not fe.begin_arrival_batch([])  # already armed
            try:
                for response in responses:
                    fe.deliver(response)
            finally:
                if batched:
                    fe.end_arrival_batch()
            fe.run()
            assert fe.n_pending == 0
            return [(r.status, r.device, r.end_s) for r in responses]

        assert run_once(batched=False) == run_once(batched=True)


class TestTieRule:
    def test_arrival_at_flush_instant_waits_for_the_timer(
        self, serving_predictors
    ):
        # The first arrival arms its model's flush timer at max_wait_s;
        # the second arrives at that very instant.  Its route event holds
        # an earlier seq than the timer, but admission runs after every
        # event already due then: the timer flushes the first one alone.
        wait = SLO.max_wait_s
        requests = [
            InferenceRequest(request_id=0, arrival_s=0.0, model=SIMPLE.name, batch=8),
            InferenceRequest(request_id=1, arrival_s=wait, model=SIMPLE.name, batch=8),
        ]
        fe = frontend(serving_predictors)
        first, second = [fe.submit_request(r) for r in requests]
        fe.run()
        assert (first.trigger, first.batch_size, first.dispatched_s) == (
            "timeout", 8, wait
        )
        assert second.batch_id != first.batch_id
        assert second.dispatched_s == 2 * wait
        result = ServingResult(responses=[first, second], telemetry=fe.telemetry)
        routed = one_node(ClusterRouter, ClusterRouter.serve_trace)(
            frontend(serving_predictors), requests
        )
        assert serving_signature(result) == serving_signature(routed)


class TestIngestionGuards:
    def test_out_of_order_arrivals_rejected_before_ledgering(
        self, serving_predictors
    ):
        fe = frontend(serving_predictors)
        out_of_order = r"arrival_s\[2\]=0\.2 precedes arrival_s\[1\]=0\.5"
        with pytest.raises(ValueError, match=out_of_order):
            fe.serve_trace(requests_at(0.0, 0.5, 0.2, 0.6))
        assert fe.n_pending == 0
        assert fe.loop.now == 0.0
        result = fe.serve_trace(requests_at(0.0, 0.2, 0.5, 0.6))
        assert len(result.responses) == 4
        assert all(r.done for r in result.responses)
        assert fe.n_pending == 0

    def test_submit_never_reuses_an_id(self, serving_predictors):
        fe = frontend(serving_predictors)
        given = fe.submit_request(InferenceRequest(
            request_id=1, arrival_s=0.0, model=SIMPLE.name, batch=8
        ))
        drawn = [fe.submit(SIMPLE.name, 8), fe.submit(SIMPLE.name, 8)]
        assert [r.request.request_id for r in drawn] == [2, 3]
        with pytest.raises(SchedulerError, match="duplicate request_id 1"):
            fe.submit_request(InferenceRequest(
                request_id=1, arrival_s=0.0, model=SIMPLE.name, batch=8
            ))
        fe.run()
        assert all(r.served for r in [given, *drawn])
        assert fe.n_pending == 0

    def test_pending_counts_submitted_before_arrival(self, serving_predictors):
        fe = frontend(serving_predictors)
        response = fe.submit(SIMPLE.name, 8, arrival_s=0.1)
        assert fe.n_pending == 1
        fe.run(until=0.05)
        assert fe.n_pending == 1
        fe.run()
        assert response.served
        assert fe.n_pending == 0


def requests_at(*times):
    return [
        InferenceRequest(request_id=i, arrival_s=t, model=SIMPLE.name, batch=8)
        for i, t in enumerate(times)
    ]
