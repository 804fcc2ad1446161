"""Node layer: specs, heterogeneous builds, load counters, and the drain machine."""

import pytest

from repro.errors import SchedulerError
from repro.cluster import (
    ClusterRouter, NodeSpec, NodeState, build_node, make_fleet,
)
from repro.faults import ResilienceConfig
from repro.serving import SLOConfig
from repro.sim.engine import EventLoop
from tests.cluster.conftest import build_fleet
from tests.serving.conftest import SERVING_SPECS

#: Queues hold until drained/flushed — lets tests observe queued work.
LONG_WAIT = SLOConfig(max_queue_depth=None, max_batch=100_000, max_wait_s=10.0)


# -- NodeSpec validation -----------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"name": ""},
        {"name": "n", "device_classes": ()},
        {"name": "n", "device_classes": ("cpu", "tpu")},
        {"name": "n", "device_classes": ("cpu", "cpu")},
    ],
)
def test_nodespec_rejects_bad_specs(kwargs):
    with pytest.raises(ValueError):
        NodeSpec(**kwargs)


def test_nodespec_defaults_full_testbed():
    spec = NodeSpec("n")
    assert spec.device_classes == ("cpu", "igpu", "dgpu")
    assert spec.active


# -- building ----------------------------------------------------------------

def test_build_node_heterogeneous_devices(serving_predictors):
    loop = EventLoop()
    node = build_node(
        NodeSpec("cpu-only", device_classes=("cpu",)),
        serving_predictors,
        SERVING_SPECS,
        loop=loop,
    )
    context = node.frontend.backlog.scheduler.context
    assert [d.device_class.value for d in context.devices] == ["cpu"]
    assert node.device_classes == ("cpu",)

    # The ranking never names an absent device...
    spec = SERVING_SPECS["simple"]
    gpu_state = node.frontend.backlog.scheduler.probe_gpu_state(now=0.0)
    ranked = node.frontend.backlog.rank_devices(spec, 64, gpu_state)
    assert ranked and all(d == "cpu" for d in ranked)

    # ...and the node actually serves on what it has.
    response = node.frontend.submit("simple", 16)
    node.frontend.run()
    assert response.served
    assert response.device == "cpu"


def test_make_fleet_shares_one_loop(serving_predictors):
    fleet = build_fleet(serving_predictors)
    loops = {id(n.frontend.loop) for n in fleet}
    assert len(loops) == 1
    assert [n.name for n in fleet] == ["node-a", "node-b", "node-c", "node-d"]


def test_make_fleet_rejects_duplicate_names(serving_predictors):
    with pytest.raises(SchedulerError, match="duplicate"):
        make_fleet(
            [NodeSpec("twin"), NodeSpec("twin")],
            serving_predictors,
            SERVING_SPECS,
        )


def test_make_fleet_rejects_empty(serving_predictors):
    with pytest.raises(SchedulerError, match="at least one"):
        make_fleet([], serving_predictors, SERVING_SPECS)


def test_inactive_spec_starts_standby(serving_predictors):
    fleet = build_fleet(
        serving_predictors,
        node_specs=(NodeSpec("on"), NodeSpec("off", active=False)),
    )
    assert fleet[0].state is NodeState.ACTIVE
    assert fleet[1].state is NodeState.STANDBY


# -- load counters lifecycle -------------------------------------------------

def test_load_counters_track_queued_then_drain(serving_predictors):
    (node,) = build_fleet(
        serving_predictors, node_specs=(NodeSpec("solo"),), default_slo=LONG_WAIT
    )
    fe = node.frontend
    for _ in range(3):
        fe.submit("simple", 8, arrival_s=0.0)

    fe.run(until=0.001)  # arrivals processed, nothing flushed yet
    assert fe.queued == 3
    assert fe.outstanding == 3
    assert fe.outstanding_samples == 24
    assert fe.queue_depth("simple") == 3
    assert fe.telemetry.recent.p99_s is None

    fe.run()
    assert fe.queued == fe.outstanding == fe.outstanding_samples == 0
    assert fe.telemetry.n_served == 3
    assert fe.telemetry.recent.p99_s is not None
    assert fe.n_pending == 0


# -- drain state machine -----------------------------------------------------

def test_drain_hands_back_queued_entries(serving_predictors):
    (node,) = build_fleet(
        serving_predictors, node_specs=(NodeSpec("solo"),), default_slo=LONG_WAIT
    )
    fe = node.frontend
    responses = [fe.submit("simple", 8, arrival_s=0.0) for _ in range(3)]
    fe.run(until=0.001)

    entries = node.start_drain()
    assert node.state is NodeState.DRAINING
    assert len(entries) == 3
    assert [e.seq for e in entries] == sorted(e.seq for e in entries)
    assert fe.queued == 0
    # The drained frontend forgot them: its own handles stay pending.
    assert fe.n_pending == 0
    assert all(r.status == "pending" for r in responses)
    assert node.finish_drain_if_idle()
    assert node.state is NodeState.STANDBY


def test_adopt_preserves_original_arrival(serving_predictors):
    donor, adopter = build_fleet(
        serving_predictors,
        node_specs=(NodeSpec("donor"), NodeSpec("adopter")),
        default_slo=LONG_WAIT,
    )
    donor.frontend.submit("simple", 8, arrival_s=0.0)
    donor.frontend.run(until=0.05)

    entries = donor.start_drain()
    assert len(entries) == 1
    response = adopter.frontend.readmit(entries[0])
    adopter.frontend.run()
    assert response.served
    # Latency spans the hop: it counts from the original t=0 arrival,
    # which happened >= 0.05s before the adopting node even saw it.
    assert response.request.arrival_s == 0.0
    assert response.latency_s >= 0.05


def test_drain_only_from_active(serving_predictors):
    fleet = build_fleet(
        serving_predictors, node_specs=(NodeSpec("off", active=False),)
    )
    with pytest.raises(SchedulerError, match="cannot drain"):
        fleet[0].start_drain()


def test_activate_refuses_mid_drain_with_inflight(serving_predictors):
    # max_batch == the submitted batch, so arrival flushes straight into
    # flight; the drain then has genuinely in-flight (not queued) work.
    flush_now = SLOConfig(max_queue_depth=None, max_batch=8, max_wait_s=10.0)
    (node,) = build_fleet(
        serving_predictors, node_specs=(NodeSpec("solo"),), default_slo=flush_now
    )
    node.frontend.submit("simple", 8, arrival_s=0.0)
    node.frontend.run(until=1e-6)
    assert node.frontend.outstanding - node.frontend.queued == 1

    entries = node.start_drain()
    assert entries == []           # nothing queued: the batch is executing
    assert not node.finish_drain_if_idle()
    with pytest.raises(SchedulerError, match="still draining"):
        node.activate()

    node.frontend.run()            # the in-flight batch lands on the drain
    assert node.finish_drain_if_idle()
    assert node.state is NodeState.STANDBY
    node.activate()                # standby -> active is always legal
    assert node.state is NodeState.ACTIVE


def test_crash_mid_drain_keeps_limboed_launches_pending(serving_predictors):
    """A draining node that crashes with launches in flight still answers
    for them: they wait in its limbo, so no sweep may call the drain done
    (and so re-activate a dead node) until the router collects them."""
    flush_now = SLOConfig(max_queue_depth=None, max_batch=8, max_wait_s=10.0)
    fleet = build_fleet(
        serving_predictors,
        node_specs=(NodeSpec("a"), NodeSpec("b")),
        default_slo=flush_now,
    )
    router = ClusterRouter(fleet, balancer="round-robin", resilience=ResilienceConfig())
    node, fe = fleet[0], fleet[0].frontend
    # Round-robin from node a: every other request lands there.
    responses = [router.submit("simple", 8, arrival_s=0.0) for _ in range(6)][0::2]
    router.run(until=1e-6)
    assert all(r.node_name == "a" for r in responses)
    assert fe.outstanding - fe.queued == 3

    assert router.drain_node("a") == 0    # nothing queued: all in flight
    node.crash()
    assert fe.n_pending == 3              # aborted into the limbo
    assert router.sweep_drains() == 0
    assert node.state is NodeState.DRAINING
    assert "drain_complete" not in [e.kind for e in router.events]
    with pytest.raises(SchedulerError, match="still draining"):
        node.activate()

    router.health_check()                 # detects the crash, re-adopts
    assert node.state is NodeState.DOWN
    assert fe.n_pending == 0
    router.run()
    assert all(r.served and r.node_name == "b" for r in responses)


def test_n_pending_counts_arrivals_into_the_limbo(serving_predictors):
    (node,) = build_fleet(
        serving_predictors, node_specs=(NodeSpec("solo"),), default_slo=LONG_WAIT
    )
    fe = node.frontend
    for _ in range(5):
        fe.submit("simple", 8, arrival_s=0.0)
    fe.run(until=0.001)
    assert fe.queued == 5
    node.crash()
    for _ in range(3):
        fe.submit("simple", 8, arrival_s=0.002)
    fe.run(until=0.003)
    assert fe.n_pending == 8
    assert len(fe.collect_lost()) == 8
    assert fe.n_pending == 0
