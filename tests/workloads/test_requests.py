"""Requests and traces."""

import math

import pytest

from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.workloads.requests import InferenceRequest, RequestTrace, make_trace
from repro.workloads.streams import ConstantStream, PoissonStream


class TestRequest:
    def test_valid(self):
        r = InferenceRequest(request_id=0, arrival_s=1.0, model="simple", batch=8)
        assert r.policy == "throughput"

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            InferenceRequest(request_id=0, arrival_s=0.0, model="m", batch=0)

    def test_negative_arrival(self):
        with pytest.raises(ValueError):
            InferenceRequest(request_id=0, arrival_s=-1.0, model="m", batch=1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("arrival_s", math.nan),
            ("arrival_s", math.inf),
            ("deadline_s", math.nan),
            ("deadline_s", math.inf),
            ("batch", 8.5),
            ("batch", True),
            ("origin_arrival_s", math.nan),
        ],
    )
    def test_non_finite_or_fractional_rejected(self, field, value):
        args = {"request_id": 0, "arrival_s": 1.0, "model": "simple", "batch": 8}
        with pytest.raises(ValueError, match=field):
            InferenceRequest(**{**args, field: value})


class TestTrace:
    def test_ordering_enforced(self):
        reqs = (
            InferenceRequest(0, 1.0, "m", 1),
            InferenceRequest(1, 0.5, "m", 1),
        )
        with pytest.raises(ValueError, match="ordered"):
            RequestTrace(requests=reqs)

    def test_aggregates(self):
        reqs = (
            InferenceRequest(0, 0.0, "m", 10),
            InferenceRequest(1, 2.0, "m", 30),
        )
        trace = RequestTrace(requests=reqs)
        assert len(trace) == 2
        assert trace.horizon_s == 2.0
        assert trace.total_samples == 40

    def test_empty_trace(self):
        trace = RequestTrace(requests=())
        assert trace.horizon_s == 0.0
        assert trace.total_samples == 0


class TestMakeTrace:
    def test_models_drawn_from_specs(self):
        trace = make_trace(
            ConstantStream(horizon_s=2.0, interval_s=0.1, batch=4),
            [SIMPLE, MNIST_SMALL],
            rng=0,
        )
        names = {r.model for r in trace}
        assert names <= {"simple", "mnist-small"}
        assert len(names) == 2

    def test_policy_propagates(self):
        trace = make_trace(
            ConstantStream(horizon_s=0.5, interval_s=0.1), [SIMPLE],
            policy="energy", rng=0,
        )
        assert all(r.policy == "energy" for r in trace)

    def test_needs_specs(self):
        with pytest.raises(ValueError):
            make_trace(ConstantStream(), [], rng=0)

    def test_deterministic(self):
        a = make_trace(ConstantStream(horizon_s=1.0, interval_s=0.2), [SIMPLE, MNIST_SMALL], rng=9)
        b = make_trace(ConstantStream(horizon_s=1.0, interval_s=0.2), [SIMPLE, MNIST_SMALL], rng=9)
        assert [r.model for r in a] == [r.model for r in b]


class TestDeadlines:
    def test_deadline_must_follow_arrival(self):
        with pytest.raises(ValueError, match="deadline"):
            InferenceRequest(
                request_id=0, arrival_s=1.0, model="m", batch=8, deadline_s=1.0
            )

    def test_slack(self):
        r = InferenceRequest(
            request_id=0, arrival_s=1.0, model="m", batch=8, deadline_s=1.4
        )
        assert r.slack_s == pytest.approx(0.4)
        assert InferenceRequest(0, 0.0, "m", 8).slack_s is None

    def test_make_trace_stamps_deadlines_from_stream_slo(self):
        stream = PoissonStream(horizon_s=2.0, rate_hz=50.0, slo_s=0.25)
        trace = make_trace(stream, [SIMPLE], rng=0)
        assert len(trace) > 0
        for r in trace:
            assert r.deadline_s == pytest.approx(r.arrival_s + 0.25)

    def test_make_trace_without_slo_leaves_best_effort(self):
        stream = PoissonStream(horizon_s=2.0, rate_hz=50.0)
        trace = make_trace(stream, [SIMPLE], rng=0)
        assert all(r.deadline_s is None for r in trace)
