"""Column-built requests: the same rules, the same errors, the same trace.

:meth:`InferenceRequest.from_columns` checks each column once and falls
back to the constructor's own checks row by row, so it must accept exactly
the columns that one ``InferenceRequest(*row)`` per row accepts and raise
the same first error.  The trace builders that use it must give the
requests (and leave the generator state) of the per-request loops in
``trace_reference``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn.zoo import MNIST_CNN, MNIST_SMALL, SIMPLE
from repro.rng import ensure_rng
from repro.workloads import (
    ConstantStream,
    FlashCrowdStream,
    MixedTrace,
    MMPPStream,
    OverloadStream,
    PoissonStream,
    SessionStream,
    TraceComponent,
    make_trace,
)
from repro.workloads.requests import InferenceRequest, RequestTrace
from tests.workloads.trace_reference import (
    reference_make_trace,
    reference_mixed_build,
    typed_rows,
)

PLANTED = [2.5, "3", np.True_, True, -5, math.nan, math.inf, -math.inf, None]

ids = st.one_of(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=9).map(np.int64),
    st.sampled_from(PLANTED + [1.5]),
)
arrivals = st.one_of(
    st.floats(min_value=0.0, max_value=100.0),
    st.integers(min_value=0, max_value=100),
    st.floats(min_value=0.0, max_value=100.0).map(np.float64),
    st.sampled_from(PLANTED + [-1.0, 0.0]),
)
batches = st.one_of(
    st.integers(min_value=1, max_value=1 << 17),
    st.integers(min_value=1, max_value=64).map(np.int32),
    st.sampled_from(PLANTED + [0]),
)
# A deadline is None, an offset from its row's arrival (<= 0 is planted),
# or a planted absolute value.
deadlines = st.one_of(
    st.none(),
    st.tuples(st.just("offset"), st.floats(min_value=-1.0, max_value=5.0)),
    st.sampled_from(PLANTED),
)
rows = st.lists(st.tuples(ids, arrivals, batches, deadlines), max_size=6)


def _columns(drawn):
    cols = ([], [], [], [], [], [])
    for i, (rid, arrival, batch, deadline) in enumerate(drawn):
        if isinstance(deadline, tuple):
            try:
                deadline = arrival + deadline[1]
            except TypeError:
                deadline = deadline[1]
        for col, value in zip(
            cols, (rid, arrival, f"m{i % 2}", batch, "throughput", deadline)
        ):
            col.append(value)
    return cols


def _outcome(build):
    try:
        return "built", typed_rows(build())
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), str(exc)


def _agree(cols):
    scalar = _outcome(lambda: tuple(InferenceRequest(*row) for row in zip(*cols)))
    bulk = _outcome(lambda: InferenceRequest.from_columns(*cols))
    assert bulk == scalar
    return bulk


class TestSameRulesAsTheConstructor:
    @settings(max_examples=400, deadline=None)
    @given(rows)
    def test_accepts_and_refuses_exactly_as_the_constructor(self, drawn):
        _agree(_columns(drawn))

    @pytest.mark.parametrize(
        "column, value",
        [(0, v) for v in PLANTED + [1.5]]
        + [(1, v) for v in PLANTED]
        + [(3, v) for v in PLANTED + [0]]
        + [(5, v) for v in (math.nan, math.inf, 1.0, 0.5, "3")],
    )
    def test_each_planted_value_is_refused_alike(self, column, value):
        cols = ([0, 1], [1.0, 2.0], ["a", "b"], [8, 64], ["p", "p"], [None, 3.0])
        cols[column][1] = value
        built = _agree(cols)[0] == "built"
        # The constructor takes a bool arrival (0 <= True < inf) and 2.5;
        # every other planted value is refused in every column.
        assert built == (column == 1 and value in (2.5, True))

    def test_bool_batch_in_a_list_is_not_coerced(self):
        # np.asarray([True, 64]) is [1, 64]: the gate must not accept it.
        cols = ([0, 1], [0.0, 0.0], ["a", "a"], [True, 64], ["p", "p"], [None, None])
        with pytest.raises(
            ValueError, match="batch must be a positive integer, got True"
        ):
            InferenceRequest.from_columns(*cols)

    def test_first_bad_row_raises(self):
        cols = ([0, 1, 2], [0.0, -1.0, math.nan], ["a"] * 3, [1, 1, 1],
                ["p"] * 3, [None] * 3)
        with pytest.raises(ValueError, match="got -1.0"):
            InferenceRequest.from_columns(*cols)

    def test_unequal_columns_are_refused(self):
        with pytest.raises(ValueError, match="equal lengths"):
            InferenceRequest.from_columns([0, 1], [0.0], ["a"], [1], ["p"], [None])

    def test_numpy_columns_build_like_their_elements(self):
        cols = (np.arange(3), np.array([0.0, 0.5, 1.0]), ["a"] * 3,
                np.array([4, 8, 16]), ["p"] * 3, [1.0, None, 2.0])
        _agree(cols)

    def test_requests_stay_frozen(self):
        (request,) = InferenceRequest.from_columns(
            [0], [0.0], ["a"], [1], ["p"], [None]
        )
        assert request.origin_arrival_s is None
        with pytest.raises(AttributeError):
            request.batch = 2
        assert request == InferenceRequest(0, 0.0, "a", 1, "p")
        assert hash(request) == hash(InferenceRequest(0, 0.0, "a", 1, "p"))


class TestRequestIdRule:
    @pytest.mark.parametrize("bad", [1.5, True, False, -5, np.True_, "3", None])
    def test_non_integer_bool_or_negative_id_is_refused(self, bad):
        with pytest.raises(ValueError, match="request_id"):
            InferenceRequest(request_id=bad, arrival_s=0.0, model="m", batch=1)

    def test_numpy_integer_id_is_accepted(self):
        assert InferenceRequest(np.int64(7), 0.0, "m", 1).request_id == 7


def _mixes():
    no_slo = TraceComponent(
        process=SessionStream(horizon_s=0.5, session_rate_hz=200.0),
        models=(MNIST_SMALL.name,), policy="energy", name="sessions",
    )
    mmpp = TraceComponent(
        process=MMPPStream(horizon_s=0.5, slo_s=0.3, rates_hz=(400.0, 4_000.0),
                           mean_sojourn_s=(0.05, 0.02)),
        models=(SIMPLE.name, MNIST_SMALL.name, MNIST_CNN.name), name="mmpp",
    )
    flash = TraceComponent(
        process=FlashCrowdStream(horizon_s=0.5, slo_s=0.2, base_rate_hz=100.0,
                                 peak_rate_hz=3_000.0, spike_at_s=0.1,
                                 ramp_s=0.05, decay_tau_s=0.1, quantum_s=None),
        models=(SIMPLE,), weight=0.6, name="flash",
    )
    return {
        "slo-and-none": MixedTrace(components=(mmpp, no_slo, flash)),
        "all-none": MixedTrace(components=(no_slo,)),
        "all-slo": MixedTrace(components=(flash, mmpp)),
    }


class TestBuildersMatchTheReference:
    @pytest.mark.parametrize("name", sorted(_mixes()))
    @pytest.mark.parametrize("n_requests", [None, 0, 37])
    def test_mixed_build(self, name, n_requests):
        mix = _mixes()[name]
        built = mix.build(rng=11, n_requests=n_requests)
        reference = reference_mixed_build(mix, rng=11, n_requests=n_requests)
        assert typed_rows(built) == typed_rows(reference)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_specs=st.sampled_from([1, 2, 3, 5]),
        slo=st.sampled_from([None, 0.25, 1]),
        horizon=st.sampled_from([0.001, 0.5, 2.0]),
    )
    @example(seed=0, n_specs=2, slo=None, horizon=0.001)
    def test_make_trace_and_generator_state(self, seed, n_specs, slo, horizon):
        specs = [SIMPLE, MNIST_SMALL, MNIST_CNN, SIMPLE, MNIST_SMALL][:n_specs]
        process = PoissonStream(horizon_s=horizon, rate_hz=40.0, slo_s=slo)
        gen, ref_gen = ensure_rng(seed), ensure_rng(seed)
        built = make_trace(process, specs, policy="energy", rng=gen)
        reference = reference_make_trace(process, specs, policy="energy", rng=ref_gen)
        assert typed_rows(built) == typed_rows(reference)
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    @pytest.mark.parametrize(
        "process",
        [
            ConstantStream(horizon_s=1.0, interval_s=0.1, batch=np.int64(4)),
            OverloadStream(horizon_s=1.0, slo_s=0.5, overload_start_s=0.2,
                           overload_end_s=0.6),
        ],
    )
    def test_make_trace_keeps_stream_element_types(self, process):
        built = make_trace(process, [SIMPLE, MNIST_SMALL], rng=5)
        reference = reference_make_trace(process, [SIMPLE, MNIST_SMALL], rng=5)
        assert len(built) > 0
        assert typed_rows(built) == typed_rows(reference)


class TestTraceOrder:
    def test_one_step_back_is_refused(self):
        requests = InferenceRequest.from_columns(
            [0, 1, 2], [0.0, 0.5, 0.25], ["a"] * 3, [1] * 3, ["p"] * 3, [None] * 3
        )
        with pytest.raises(ValueError, match="time-ordered"):
            RequestTrace(requests=requests)

    def test_ties_are_ordered(self):
        requests = InferenceRequest.from_columns(
            [0, 1], [0.5, 0.5], ["a"] * 2, [1] * 2, ["p"] * 2, [None] * 2
        )
        assert len(RequestTrace(requests=requests)) == 2
