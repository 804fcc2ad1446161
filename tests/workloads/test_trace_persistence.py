"""Request-trace serialization."""

import pytest

from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.workloads.requests import InferenceRequest, RequestTrace, make_trace
from repro.workloads.streams import PoissonStream


@pytest.fixture()
def trace():
    return make_trace(
        PoissonStream(horizon_s=2.0, rate_hz=20), [SIMPLE, MNIST_SMALL], rng=3
    )


class TestJsonRoundtrip:
    def test_exact(self, trace):
        rebuilt = RequestTrace.from_json(trace.to_json())
        assert rebuilt == trace

    def test_file_roundtrip(self, trace, tmp_path):
        path = tmp_path / "trace.json"
        trace.save(path)
        assert RequestTrace.load(path) == trace

    def test_empty_trace(self):
        empty = RequestTrace(requests=())
        assert RequestTrace.from_json(empty.to_json()) == empty

    def test_invalid_json(self):
        with pytest.raises(ValueError, match="invalid"):
            RequestTrace.from_json("{oops")

    def test_non_list_rejected(self):
        with pytest.raises(ValueError, match="list"):
            RequestTrace.from_json('{"a": 1}')

    def test_malformed_record(self):
        with pytest.raises(ValueError, match="malformed"):
            RequestTrace.from_json('[{"request_id": 1}]')

    def test_ordering_still_enforced(self):
        bad = (
            '[{"request_id": 0, "arrival_s": 2.0, "model": "m", "batch": 1, '
            '"policy": "throughput"}, {"request_id": 1, "arrival_s": 1.0, '
            '"model": "m", "batch": 1, "policy": "throughput"}]'
        )
        with pytest.raises(ValueError, match="ordered"):
            RequestTrace.from_json(bad)

    def test_loaded_trace_replays(self, trace, trained_predictors, tmp_path):
        from repro.ocl.context import Context
        from repro.ocl.platform import get_all_devices
        from repro.sched.dispatcher import Dispatcher
        from repro.sched.scheduler import OnlineScheduler
        from repro.serving import IMMEDIATE_DISPATCH, ServingFrontend

        path = tmp_path / "trace.json"
        trace.save(path)
        loaded = RequestTrace.load(path)

        ctx = Context(get_all_devices())
        dispatcher = Dispatcher(ctx)
        for spec in (SIMPLE, MNIST_SMALL):
            dispatcher.deploy_fresh(spec, rng=0)
        frontend = ServingFrontend(
            OnlineScheduler(ctx, dispatcher, trained_predictors),
            {"simple": SIMPLE, "mnist-small": MNIST_SMALL},
            default_slo=IMMEDIATE_DISPATCH, max_rank=1,
        )
        result = frontend.serve_trace(loaded)
        assert len(result.served) == len(trace)


def test_deadlines_survive_roundtrip():
    from repro.workloads.requests import InferenceRequest, RequestTrace

    trace = RequestTrace(
        requests=(
            InferenceRequest(0, 0.0, "m", 8, deadline_s=0.5),
            InferenceRequest(1, 0.1, "m", 8),  # mixed: one best-effort
        )
    )
    back = RequestTrace.from_json(trace.to_json())
    assert back.requests[0].deadline_s == 0.5
    assert back.requests[1].deadline_s is None
    assert back == trace
