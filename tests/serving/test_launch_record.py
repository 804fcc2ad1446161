"""One launch record per landed batch, shared by the handles it served.

A standalone frontend (served as a one-node fleet, node ``"serving"``)
and a three-node router replay an overload under an error profile that
fails some requests in the middle of their batch.  Every landed batch is
captured at its worker's completion callback, so each check compares a
batch's entries against the record they got:

* the served handles of one batch hold the very same record, and
  batch ids are unique per node;
* failed, shed and pending handles hold none, and every launch view
  reads None on them;
* a batch that lost no request hands out exactly its energy and its
  samples; a batch that lost one hands out less;
* arrival <= dispatched_s <= start_s <= end_s.
"""

from __future__ import annotations

import math
import sys

import pytest

from repro.cluster import ClusterRouter, NodeSpec
from repro.faults import ErrorProfile
from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.serving import LaunchRecord, ServingFrontend, ServingResponse, SLOConfig
from repro.workloads.requests import InferenceRequest, make_trace
from repro.workloads.streams import OverloadStream
from tests.cluster.conftest import build_fleet
from tests.serving.conftest import SERVING_SPECS, build_scheduler

#: The handle's read-through views of its launch record.
LAUNCH_VIEWS = (
    "device", "device_name", "gpu_state", "trigger", "batch_id",
    "batch_size", "dispatched_s", "start_s", "end_s", "energy_j",
)

SLO = SLOConfig(deadline_s=0.3, max_queue_depth=48, max_batch=4096, max_wait_s=0.005)

STREAM = OverloadStream(
    horizon_s=0.4, slo_s=0.3, normal_rate_hz=400, overload_rate_hz=4000,
    overload_start_s=0.1, overload_end_s=0.25, normal_batch=32,
    overload_batch=4096,
)


def error_profile() -> ErrorProfile:
    return ErrorProfile(0.2, seed=5, windows=[(0.0, 10.0)])


def capture_batches(frontend: ServingFrontend, node: str, landed: list):
    """Record ``(node, entries)`` for every batch the frontend lands."""
    for worker in frontend._workers.values():
        def on_complete(batch, placement, event, _inner=worker.on_complete):
            _inner(batch, placement, event)
            landed.append((node, batch.entries))
        worker.on_complete = on_complete


def run_frontend(serving_predictors):
    fe = ServingFrontend(
        build_scheduler(serving_predictors), SERVING_SPECS, default_slo=SLO
    )
    fe.fault_profile = error_profile()
    landed: list = []
    capture_batches(fe, "serving", landed)
    trace = make_trace(STREAM, [SIMPLE, MNIST_SMALL], rng=11)
    return fe.serve_trace(trace).responses, landed


def run_router(serving_predictors):
    nodes = build_fleet(
        serving_predictors, node_specs=tuple(NodeSpec(f"n{i}") for i in range(3)),
        default_slo=SLO,
    )
    landed: list = []
    for node in nodes:
        node.frontend.fault_profile = error_profile()
        capture_batches(node.frontend, node.name, landed)
    router = ClusterRouter(nodes)
    trace = make_trace(STREAM, [SIMPLE, MNIST_SMALL], rng=11)
    return router.serve_trace(trace).responses, landed


@pytest.fixture(params=["frontend", "router"])
def replay(request, serving_predictors):
    runner = run_frontend if request.param == "frontend" else run_router
    return runner(serving_predictors)


def test_served_handles_share_one_record_per_batch(replay):
    responses, landed = replay
    records = {}
    for node, entries in landed:
        served = [r for r in entries if r.served]
        if not served:
            continue
        launch = served[0].launch
        assert type(launch) is LaunchRecord
        assert all(r.launch is launch for r in served)
        assert all(r.node_name == node for r in served)
        key = (node, launch.batch_id)
        assert key not in records, f"batch id {key} handed out twice"
        records[key] = launch
    # Every served handle's record is one of the landed batches' records.
    assert {id(r.launch) for r in responses if r.served} == {
        id(launch) for launch in records.values()
    }


def test_failed_shed_and_pending_handles_hold_no_record(replay):
    responses, landed = replay
    failed = [r for r in responses if r.shed_reason == "inference_error"]
    assert failed, "the error profile failed nothing"
    refused = [r for r in responses if r.status == "shed"]
    assert len(refused) > len(failed), "admission shed nothing"
    for r in refused:
        assert r.launch is None
        assert all(getattr(r, view) is None for view in LAUNCH_VIEWS)
    for r in responses:
        assert (r.launch is not None) == r.served


def test_pending_handle_reads_none(serving_predictors):
    fe = ServingFrontend(
        build_scheduler(serving_predictors), SERVING_SPECS, default_slo=SLO
    )
    response = fe.submit("simple", 16)
    assert response.launch is None
    assert all(getattr(response, view) is None for view in LAUNCH_VIEWS)
    assert response.outcome_tuple() == (0, "pending", None, None, None, None)
    fe.run()
    assert response.served and response.launch.size == 16


def test_shares_sum_to_the_launch_unless_a_request_failed(replay):
    _responses, landed = replay
    whole = partial = 0
    for _node, entries in landed:
        served = [r for r in entries if r.served]
        if not served:
            continue
        launch = served[0].launch
        samples = sum(r.batch for r in served)
        energy = math.fsum(r.energy_j for r in served)
        if len(served) == len(entries):
            whole += 1
            assert samples == launch.size
            assert energy == pytest.approx(launch.energy_j, rel=1e-12, abs=0.0)
        else:
            partial += 1
            assert samples < launch.size
            assert energy < launch.energy_j
        for r in served:
            assert r.batch_size == launch.size
            assert r.energy_j == launch.energy_j * r.batch / launch.size
    assert whole and partial, (whole, partial)


def test_launch_times_are_causal(replay):
    responses, _landed = replay
    served = [r for r in responses if r.served]
    assert served
    for r in served:
        launch = r.launch
        assert r.request.arrival_s <= launch.dispatched_s <= launch.start_s
        assert launch.start_s <= launch.end_s == r.end_s


def test_served_handle_is_small():
    """The handle keeps one launch reference, not ten copied fields."""
    response = ServingResponse(InferenceRequest(0, 0.0, "simple", 1))
    assert not set(LAUNCH_VIEWS) & set(ServingResponse.__slots__)
    assert "launch" in ServingResponse.__slots__
    if sys.implementation.name == "cpython":
        assert sys.getsizeof(response) <= 144
    with pytest.raises(AttributeError):
        response.end_s = 1.0
