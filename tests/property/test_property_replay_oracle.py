"""Property tests: ``serve_trace`` equals one ``submit_request`` per arrival.

Traces are drawn on a coarse 1 ms grid with mostly-zero gaps, so many
arrivals share a timestamp and the trace cursor's run batching (shared
estimate memos, one routing pass per run, one delivery event per run)
is exercised on every example.  SLO configs vary the queue discipline,
degrade mode, queue caps and default deadlines.  For the frontend and
for the router under round-robin (stateful, probed per request) and
least-ECT (pure, memoized per run) every outcome field and the
telemetry must match the per-request oracle digit for digit.

A second strategy draws long same-instant runs (20-60 arrivals of two
models) against queue caps smaller than the run and ``max_batch`` below
its samples, so queues fill and ``full`` flushes land mid-run, where run
delivery switches from appending to pushing.  Those replays also compare
the per-model admission counters and the order in which resolution hooks
fire.

The router's reference is :class:`~tests.replay_oracle.TwoEventRouter`
fed one ``submit_request`` per arrival: every lone arrival takes a route
event and a separate arrival event.  Both ``serve_trace`` and per-request
``submit_request`` on the real router, which deliver a lone arrival in
its route event when nothing else is due, must equal it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import ServingFrontend, SLOConfig
from repro.workloads.requests import InferenceRequest, RequestTrace
from tests.cluster.conftest import build_fleet
from tests.replay_oracle import (
    ROUTER_REPLAYS,
    cluster_signature,
    recorded_resolutions,
    serve_per_request,
    serving_signature,
)
from tests.serving.conftest import SERVING_SPECS, build_scheduler

_TICK_S = 0.001

arrival_steps = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 0, 1, 2, 5]),              # gap in ticks
        st.sampled_from(["simple", "mnist-small"]),       # model
        st.sampled_from([1, 8, 64, 300]),                 # batch
        st.one_of(st.none(), st.sampled_from([0.004, 0.02, 0.1])),  # SLO
    ),
    min_size=1,
    max_size=40,
)

slo_configs = st.builds(
    SLOConfig,
    deadline_s=st.one_of(st.none(), st.sampled_from([0.01, 0.05])),
    max_queue_depth=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    max_batch=st.sampled_from([16, 64, 256]),
    max_wait_s=st.sampled_from([0.0, 0.002, 0.01]),
    discipline=st.sampled_from(["fifo", "edf"]),
    degrade=st.booleans(),
)


arrival = st.tuples(
    st.sampled_from(["simple", "mnist-small"]),           # model
    st.sampled_from([8, 8, 64, 300]),                     # batch
    st.one_of(st.none(), st.sampled_from([0.004, 0.02, 0.1])),  # SLO
)

long_runs = st.lists(
    st.tuples(
        st.sampled_from([1, 2, 5]),                       # ticks before
        st.lists(arrival, min_size=20, max_size=60),      # one instant
    ),
    min_size=1,
    max_size=3,
)

#: Caps below every run's length and ``max_batch`` below every run's
#: samples (at least 20 x 8).
run_slo_configs = st.builds(
    SLOConfig,
    deadline_s=st.one_of(st.none(), st.sampled_from([0.01, 0.05])),
    max_queue_depth=st.integers(min_value=2, max_value=12),
    max_batch=st.sampled_from([32, 64, 128]),
    max_wait_s=st.sampled_from([0.0, 0.002, 0.01]),
    discipline=st.sampled_from(["fifo", "edf"]),
    degrade=st.booleans(),
)


def trace_from_runs(runs) -> RequestTrace:
    tick, requests = 0, []
    for gap, arrivals in runs:
        tick += gap
        t = tick * _TICK_S
        for model, batch, slo in arrivals:
            requests.append(InferenceRequest(
                request_id=len(requests), arrival_s=t, model=model,
                batch=batch, deadline_s=None if slo is None else t + slo,
            ))
    return RequestTrace(requests=tuple(requests))


def trace_from_steps(steps) -> RequestTrace:
    tick, requests = 0, []
    for i, (gap, model, batch, slo) in enumerate(steps):
        tick += gap
        t = tick * _TICK_S
        requests.append(InferenceRequest(
            request_id=i, arrival_s=t, model=model, batch=batch,
            deadline_s=None if slo is None else t + slo,
        ))
    return RequestTrace(requests=tuple(requests))


@settings(max_examples=25, deadline=None)
@given(steps=arrival_steps, slo=slo_configs)
def test_frontend_matches_oracle(serving_predictors, steps, slo):
    trace = trace_from_steps(steps)
    outcomes = []
    for replay in (serve_per_request, ServingFrontend.serve_trace):
        frontend = ServingFrontend(
            build_scheduler(serving_predictors), SERVING_SPECS, default_slo=slo
        )
        outcomes.append(serving_signature(replay(frontend, trace)))
        assert frontend.n_pending == 0
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("balancer", ["round-robin", "least-ect"])
@settings(max_examples=25, deadline=None)
@given(steps=arrival_steps, slo=slo_configs)
def test_router_matches_oracle(serving_predictors, balancer, steps, slo):
    trace = trace_from_steps(steps)
    outcomes = []
    for router_cls, replay in ROUTER_REPLAYS:
        router = router_cls(
            build_fleet(serving_predictors, default_slo=slo),
            balancer=balancer, rng=7,
        )
        with recorded_resolutions() as log:
            result = replay(router, trace)
        outcomes.append(cluster_signature(result, router, log))
        assert router.n_pending == 0
    assert outcomes[1] == outcomes[0]
    assert outcomes[2] == outcomes[0]


@settings(max_examples=25, deadline=None)
@given(runs=long_runs, slo=run_slo_configs)
def test_frontend_long_runs_match_oracle(serving_predictors, runs, slo):
    trace = trace_from_runs(runs)
    outcomes = []
    for replay in (serve_per_request, ServingFrontend.serve_trace):
        frontend = ServingFrontend(
            build_scheduler(serving_predictors), SERVING_SPECS, default_slo=slo
        )
        with recorded_resolutions() as log:
            result = replay(frontend, trace)
        outcomes.append(serving_signature(result, frontend, log))
        assert frontend.n_pending == 0
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("balancer", ["round-robin", "least-ect"])
@settings(max_examples=25, deadline=None)
@given(runs=long_runs, slo=run_slo_configs)
def test_router_long_runs_match_oracle(serving_predictors, balancer, runs, slo):
    trace = trace_from_runs(runs)
    outcomes = []
    for router_cls, replay in ROUTER_REPLAYS:
        router = router_cls(
            build_fleet(serving_predictors, default_slo=slo),
            balancer=balancer, rng=7,
        )
        with recorded_resolutions() as log:
            result = replay(router, trace)
        outcomes.append(cluster_signature(result, router, log))
        assert router.n_pending == 0
    assert outcomes[1] == outcomes[0]
    assert outcomes[2] == outcomes[0]
