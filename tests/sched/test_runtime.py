"""Stream replay: the Fig. 5 scheduler under live traffic.

A trace is replayed one request at a time through the serving frontend
with coalescing and admission off (``IMMEDIATE_DISPATCH``) and only the
predictor's top-ranked device eligible (``max_rank=1``): each request is
placed at its arrival on the device the forest picks for the dGPU state
probed right then.  A test-local reference loop pins that configuration
to the plain probe → predict → enqueue pipeline.
"""

import pytest

from repro.errors import SchedulerError
from repro.nn.zoo import MNIST_DEEP, MNIST_SMALL, SIMPLE
from repro.ocl.context import Context
from repro.ocl.platform import get_all_devices
from repro.sched.dispatcher import Dispatcher
from repro.sched.policies import Policy
from repro.sched.scheduler import OnlineScheduler
from repro.serving import IMMEDIATE_DISPATCH, ServingFrontend, ServingResult
from repro.telemetry.session import MeasurementSession
from repro.workloads.requests import InferenceRequest, RequestTrace, make_trace
from repro.workloads.streams import BurstStream, ConstantStream

SPECS = {s.name: s for s in (SIMPLE, MNIST_SMALL, MNIST_DEEP)}


def build_scheduler(predictors):
    ctx = Context(get_all_devices())
    dispatcher = Dispatcher(ctx)
    for spec in SPECS.values():
        dispatcher.deploy_fresh(spec, rng=0)
    return OnlineScheduler(ctx, dispatcher, predictors)


def replay(scheduler, trace, policy="throughput"):
    """The trace through the frontend's one-request-at-a-time configuration."""
    frontend = ServingFrontend(
        scheduler, SPECS, default_slo=IMMEDIATE_DISPATCH, max_rank=1, policy=policy
    )
    return frontend.serve_trace(trace)


def reference_replay(scheduler, trace):
    """Probe the dGPU, take the predictor's argmax, enqueue back to back."""
    out = []
    for req in trace:
        spec = SPECS[req.model]
        gpu_state = scheduler.probe_gpu_state(now=req.arrival_s)
        predictor = scheduler.predictors[Policy.parse(req.policy)]
        device_class = predictor.predict_device(spec, req.batch, gpu_state)
        name = scheduler.context.get_device(device_class).name
        queue = scheduler.queue_for(name)
        if queue.current_time < req.arrival_s:
            queue.advance_to(req.arrival_s)
        kernel = scheduler.dispatcher.kernel_for(name, spec.name)
        event = queue.enqueue_inference_virtual(kernel, req.batch)
        out.append((device_class, event.time_ended, event.energy.total_j))
    return out


def accuracy(result, policy="throughput"):
    """Share of placements matching the hindsight-best device."""
    session = MeasurementSession()
    hits = [
        session.best_device(
            SPECS[r.request.model], r.request.batch, r.gpu_state, policy
        ) == r.device_name
        for r in result.served
    ]
    return sum(hits) / len(hits)


@pytest.fixture()
def scheduler(trained_predictors):
    return build_scheduler(trained_predictors)


def trace_of(pairs, model="mnist-small", policy="throughput"):
    return RequestTrace(
        requests=tuple(
            InferenceRequest(request_id=i, arrival_s=t, model=model, batch=b, policy=policy)
            for i, (t, b) in enumerate(pairs)
        )
    )


class TestBasicStreaming:
    def test_serves_all_requests(self, scheduler):
        result = replay(scheduler, trace_of([(0.0, 64), (0.5, 256), (1.0, 1024)]))
        assert len(result) == 3
        assert len(result.served) == 3

    def test_records_consistent(self, scheduler):
        result = replay(scheduler, trace_of([(0.0, 64), (0.2, 512)]))
        for r in result.responses:
            assert r.end_s > r.start_s
            assert r.start_s >= r.request.arrival_s
            assert r.batch_size == r.request.batch   # never coalesced
            assert r.energy_j > 0.0

    def test_queueing_delay_under_backlog(self, scheduler):
        """Back-to-back big requests on one device must queue."""
        result = replay(
            scheduler,
            trace_of([(0.0, 1 << 15), (0.0001, 1 << 15), (0.0002, 1 << 15)]),
        )
        last = result.responses[-1]
        assert last.start_s > last.request.arrival_s

    def test_unknown_model_rejected(self, scheduler):
        trace = trace_of([(0.0, 8)], model="resnet")
        with pytest.raises(SchedulerError, match="not served"):
            replay(scheduler, trace)

    def test_accuracy_reported_with_oracle(self, scheduler):
        result = replay(scheduler, trace_of([(0.0, 16), (0.5, 1 << 14)]))
        assert 0.0 <= accuracy(result) <= 1.0

    def test_accuracy_requires_oracle(self, scheduler):
        """The hindsight oracle is costed at the placement's probed dGPU
        state, which a response carries only once it has been served."""
        frontend = ServingFrontend(
            scheduler, SPECS, default_slo=IMMEDIATE_DISPATCH, max_rank=1
        )
        response = frontend.submit("simple", 8)
        assert response.gpu_state is None
        frontend.run()
        assert response.gpu_state in ("idle", "warm")


class TestReferenceEquivalence:
    def test_matches_probe_predict_enqueue_loop(self, trained_predictors):
        stream = BurstStream(
            horizon_s=4.0, base_rate_hz=4, burst_factor=16,
            burst_duration_s=0.5, burst_every_s=2.0, base_batch=16,
        )
        trace = make_trace(stream, list(SPECS.values()), rng=1)
        result = replay(build_scheduler(trained_predictors), trace)
        expected = reference_replay(build_scheduler(trained_predictors), trace)
        assert len(trace) > 20
        assert [(r.device, r.end_s) for r in result.responses] == [
            (device, end) for device, end, _ in expected
        ]
        for r, (_, _, energy) in zip(result.responses, expected):
            assert r.energy_j == pytest.approx(energy, rel=1e-12)


class TestAdaptivity:
    def test_gpu_state_reprobed_per_request(self, scheduler):
        """A burst warms the dGPU; a later lull lets it cool again."""
        pairs = [(0.01 * i, 1 << 15) for i in range(8)]       # hot burst
        pairs.append((pairs[-1][0] + 30.0, 64))               # after a long lull
        result = replay(scheduler, trace_of(pairs))
        assert result.responses[-2].gpu_state == "warm"
        assert result.responses[-1].gpu_state == "idle"

    def test_mixed_batches_use_multiple_devices(self, scheduler):
        pairs = [(0.1 * i, 8 if i % 2 else 1 << 15) for i in range(10)]
        result = replay(scheduler, trace_of(pairs))
        assert len(result.device_shares()) >= 2

    def test_energy_policy_routes_differently(self, trained_predictors):
        tput = replay(
            build_scheduler(trained_predictors),
            trace_of([(0.0, 256)], model="mnist-deep"),
        )
        energy = replay(
            build_scheduler(trained_predictors),
            trace_of([(0.0, 256)], model="mnist-deep", policy="energy"),
            policy="energy",
        )
        assert tput.responses[0].device != energy.responses[0].device


class TestAggregates:
    def test_totals(self, scheduler):
        result = replay(scheduler, trace_of([(0.0, 100), (1.0, 200)]))
        assert sum(r.batch_size for r in result.served) == 300
        assert result.total_energy_j == pytest.approx(
            sum(r.energy_j for r in result.served)
        )
        assert max(r.end_s for r in result.served) >= 1.0

    def test_latency_stats(self, scheduler):
        result = replay(scheduler, trace_of([(0.0, 64), (0.5, 64), (1.0, 64)]))
        assert min(r.latency_s for r in result.served) > 0
        assert result.latency_percentile(50) <= result.latency_percentile(99)

    def test_empty_result_guards(self):
        empty = ServingResult()
        assert empty.device_shares() == {}
        assert empty.shed_rate == 0.0
        with pytest.raises(SchedulerError):
            empty.latency_percentile(50)

    def test_records_between(self, scheduler):
        """Responses come back one per request, in trace order."""
        result = replay(scheduler, trace_of([(0.0, 8), (1.0, 8), (2.0, 8)]))
        window = [r for r in result.responses if 0.5 <= r.request.arrival_s < 1.5]
        assert [r.request.request_id for r in window] == [1]


class TestStreamIntegration:
    def test_constant_stream_end_to_end(self, scheduler):
        trace = make_trace(
            ConstantStream(horizon_s=2.0, interval_s=0.25, batch=128),
            [MNIST_SMALL],
            rng=0,
        )
        result = replay(scheduler, trace)
        assert len(result.served) == 8

    def test_burst_stream_shifts_placement(self, scheduler):
        stream = BurstStream(
            horizon_s=4.0, base_rate_hz=4, burst_factor=16,
            burst_duration_s=0.5, burst_every_s=2.0, base_batch=16,
        )
        trace = make_trace(stream, [MNIST_SMALL], rng=1)
        result = replay(scheduler, trace)
        # Burst requests (big batches) and quiet requests (small) should
        # land on different devices at least once.
        devices_small = {r.device for r in result.served if r.request.batch <= 16}
        devices_big = {r.device for r in result.served if r.request.batch > 128}
        assert devices_big and devices_small
        assert devices_big != devices_small
