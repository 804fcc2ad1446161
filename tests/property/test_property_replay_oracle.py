"""Property tests: ``serve_trace`` equals one ``submit_request`` per arrival.

Traces are drawn on a coarse 1 ms grid with mostly-zero gaps, so many
arrivals share a timestamp and the trace cursor's run batching (shared
estimate memos, one routing pass per run, one delivery event per run)
is exercised on every example.  SLO configs vary the queue discipline,
degrade mode, queue caps and default deadlines.  For the frontend and
for the router under round-robin (stateful, probed per request) and
least-ECT (pure, memoized per run) every outcome field and the
telemetry must match the per-request oracle digit for digit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterRouter
from repro.serving import ServingFrontend, SLOConfig
from repro.workloads.requests import InferenceRequest, RequestTrace
from tests.cluster.conftest import build_fleet
from tests.replay_oracle import (
    cluster_signature,
    route_per_request,
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
    for replay in (route_per_request, ClusterRouter.serve_trace):
        router = ClusterRouter(
            build_fleet(serving_predictors, default_slo=slo),
            balancer=balancer, rng=7,
        )
        outcomes.append(cluster_signature(replay(router, trace)))
        assert router.n_pending == 0
    assert outcomes[0] == outcomes[1]
