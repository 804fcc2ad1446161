"""Frontend ``serve_trace`` against its one-event-per-request oracle.

``serve_trace`` batches same-timestamp arrivals through a
:class:`~repro.sim.engine.TraceCursor` and shares completion-estimate
probes across a run.  Batching is an optimization, never a semantics
change: every request must resolve exactly as under one
``submit_request`` per arrival — same status, device, virtual end time
and telemetry, digit for digit — including with a partitioned
accelerator repartitioning mid-flood.
"""

import pytest

from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.serving import ServingFrontend, ServingResponse, SLOConfig
from repro.workloads import (
    FlashCrowdStream,
    MixedTrace,
    MMPPStream,
    RequestTrace,
    SessionStream,
    TraceComponent,
)
from repro.workloads.requests import InferenceRequest
from tests.replay_oracle import serve_per_request, serving_signature
from tests.serving.conftest import SERVING_SPECS, build_scheduler

SLO = SLOConfig(
    deadline_s=0.3, max_queue_depth=64, max_batch=4096, max_wait_s=0.005
)


def mixed_trace(horizon_s: float = 1.0, seed: int = 13) -> RequestTrace:
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


class TestOracleEquivalence:
    def test_mixed_trace_is_digit_identical(self, serving_predictors):
        trace = mixed_trace()
        outcomes = []
        for replay in (serve_per_request, ServingFrontend.serve_trace):
            fe = ServingFrontend(
                build_scheduler(serving_predictors), SERVING_SPECS,
                default_slo=SLO,
            )
            result = replay(fe, trace)
            assert fe.n_pending == 0
            outcomes.append(serving_signature(result))
        assert outcomes[0] == outcomes[1]

    def test_with_partitioned_accelerator_mid_flood(self, serving_predictors):
        from repro.hw.specs import DGPU_GTX_1080TI
        from repro.partition import (
            PartitionableDeviceSpec,
            PartitionedAccelerator,
        )

        trace = mixed_trace(horizon_s=0.6, seed=21)
        outcomes = []
        for replay in (serve_per_request, ServingFrontend.serve_trace):
            fe = ServingFrontend(
                build_scheduler(serving_predictors), SERVING_SPECS,
                default_slo=SLO,
            )
            accel = PartitionedAccelerator(
                fe, PartitionableDeviceSpec(DGPU_GTX_1080TI), start_mode=1
            )
            # Scripted split/merge while the flood is in flight; armed
            # before ingestion on both paths, so ties resolve alike.
            fe.loop.schedule(0.15, lambda _l: accel.set_mode(4), label="script")
            fe.loop.schedule(0.35, lambda _l: accel.set_mode(2), label="script")
            result = replay(fe, trace)
            assert fe.n_pending == 0
            assert accel.n_repartitions == 2
            outcomes.append(serving_signature(result))
        assert outcomes[0] == outcomes[1]

    def test_empty_trace(self, serving_predictors):
        fe = ServingFrontend(
            build_scheduler(serving_predictors), SERVING_SPECS,
            default_slo=SLO,
        )
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
            fe = ServingFrontend(
                build_scheduler(serving_predictors), SERVING_SPECS,
                default_slo=SLO,
            )
            responses = [ServingResponse(r) for r in requests]
            for response in responses:
                fe.register_request(response)
            if batched:
                assert fe.begin_arrival_batch()
                assert not fe.begin_arrival_batch()  # already armed
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


def requests_at(*times):
    return [
        InferenceRequest(request_id=i, arrival_s=t, model=SIMPLE.name, batch=8)
        for i, t in enumerate(times)
    ]


class TestIngestionGuards:
    def _frontend(self, serving_predictors):
        return ServingFrontend(
            build_scheduler(serving_predictors), SERVING_SPECS, default_slo=SLO
        )

    def test_out_of_order_arrivals_rejected_before_ledgering(
        self, serving_predictors
    ):
        fe = self._frontend(serving_predictors)
        out_of_order = r"arrival_s\[2\]=0\.2 precedes arrival_s\[1\]=0\.5"
        with pytest.raises(ValueError, match=out_of_order):
            fe.serve_trace(requests_at(0.0, 0.5, 0.2, 0.6))
        assert fe.n_pending == 0
        assert fe.loop.now == 0.0
        result = fe.serve_trace(requests_at(0.0, 0.2, 0.5, 0.6))
        assert len(result.responses) == 4
        assert all(r.done for r in result.responses)
        assert fe.n_pending == 0
