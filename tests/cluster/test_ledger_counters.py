"""Running ledger and load counters equal a recount of what they count.

``goodput()`` and ``n_pending`` read counters updated once per response
at its single resolution point (``ServingResponse.resolve``), not by
scanning the ledger.  A recount after retries, crashes and drains — and
mid-run, while work is still pending — must agree exactly, and so must
the outcome aggregate's ``result().goodput()``.  The same
holds one layer down for each frontend's ``queued`` / ``outstanding`` /
``outstanding_samples`` against its queues and in-flight ledgers, for
the handles each frontend holds (each held by one frontend at a time,
under the keys it was stamped with), and for the per-batch served
telemetry against the handles each node served.
"""

from __future__ import annotations

from collections import Counter

from repro.cluster import ClusterRouter, NodeSpec, build_node
from repro.faults import FaultInjector, ResilienceConfig
from repro.serving import SLOConfig
from repro.sim.engine import EventLoop
from tests.cluster.conftest import build_fleet
from tests.serving.conftest import SERVING_SPECS

RESILIENCE = ResilienceConfig(
    timeout_s=0.05, heartbeat_every_s=0.01, breaker_cooldown_s=0.05,
    breaker_max_cooldown_s=0.4, seed=11,
)


def recount(router) -> "tuple[int, float]":
    """(pending, goodput) recomputed by scanning the router's ledger."""
    responses = router.result().responses
    resolved = [r for r in responses if r.done]
    good = sum(1 for r in resolved if r.served and r.deadline_met is not False)
    goodput = good / len(resolved) if resolved else 1.0
    return len(responses) - len(resolved), goodput


def assert_counters_match(router) -> None:
    pending, goodput = recount(router)
    assert router.n_pending == pending
    assert router.goodput() == goodput == router.result().goodput()


def test_counters_match_after_faults_and_retries(serving_predictors):
    router = ClusterRouter(
        build_fleet(serving_predictors), balancer="least-ect",
        resilience=RESILIENCE,
    )
    assert_counters_match(router)
    injector = FaultInjector(router)
    injector.inject_errors(0.0, "node-a", rate=1.0, duration_s=0.05, seed=1)
    injector.crash_node(0.02, "node-b")
    injector.recover_node(0.2, "node-b")
    # Throttles after admission make some served requests late.
    for node in ("node-c", "node-d"):
        injector.throttle_device(0.002, node, "cpu", 4.0, duration_s=0.2)
    responses = [
        router.submit(
            "simple" if i % 2 else "mnist-small", 64 + i,
            deadline_s=0.03 if i % 3 else 2.0, arrival_s=0.001 * i,
        )
        for i in range(60)
    ]
    router.schedule_health(0.5)
    router.run(until=0.03)
    assert router.n_pending > 0
    assert_counters_match(router)
    router.run()
    res = router.telemetry.resilience
    assert res.n_retries >= 1 and res.n_crashes_detected == 1
    assert any(r.served and r.deadline_met is False for r in responses)
    assert router.n_pending == 0
    assert 0.0 < router.goodput() < 1.0
    assert_counters_match(router)


def test_counters_match_after_a_drain(serving_predictors):
    router = ClusterRouter(build_fleet(serving_predictors), balancer="least-ect")
    for i in range(40):
        router.submit("mnist-small", 256, deadline_s=0.05, arrival_s=0.0005 * i)
    router.loop.schedule(0.005, lambda _loop: router.drain_node("node-a"))
    router.run(until=0.01)
    assert_counters_match(router)
    router.run()
    assert router.n_rerouted > 0
    assert_counters_match(router)


def recount_load(frontend) -> "tuple[int, int, int]":
    """(queued, outstanding, outstanding samples) by walking the queues
    and every worker's in-flight ledger."""
    queued = [e for q in frontend._queues.values() for e in q]
    in_flight = [
        e
        for device in frontend.backlog.scheduler.context.devices
        for batch, *_ in frontend.worker_for(device.name)._inflight.values()
        for e in batch.entries
    ]
    entries = queued + in_flight
    return len(queued), len(entries), sum(e.batch for e in entries)


def faulted_run(predictors, check, holder=False) -> "tuple[ClusterRouter, list, int]":
    """Run a fleet through a crash and recovery, a dGPU drop and restore,
    a throttle and a degrading node, calling ``check(nodes)`` after every
    event; ``holder`` adds a node whose queue holds requests until their
    rescue timeout.  Returns the drained router, its nodes and the number
    of events."""
    loop = EventLoop()
    slo = dict(deadline_s=0.05, max_batch=4096, max_wait_s=0.005)
    nodes = [
        build_node(NodeSpec("full-a"), predictors, SERVING_SPECS,
                   loop=loop, default_slo=SLOConfig(**slo)),
        build_node(NodeSpec("full-b"), predictors, SERVING_SPECS,
                   loop=loop, default_slo=SLOConfig(**slo)),
        build_node(NodeSpec("degrader", device_classes=("cpu", "igpu")),
                   predictors, SERVING_SPECS, loop=loop,
                   default_slo=SLOConfig(**slo, max_queue_depth=2,
                                         degrade=True)),
    ]
    if holder:
        nodes.append(build_node(
            NodeSpec("holder"), predictors, SERVING_SPECS, loop=loop,
            default_slo=SLOConfig(**{**slo, "max_wait_s": 1.0}),
        ))
    router = ClusterRouter(nodes, balancer="least-ect", resilience=RESILIENCE)
    injector = FaultInjector(router)
    injector.crash_node(0.01, "full-a")
    injector.recover_node(0.06, "full-a")
    injector.drop_device(0.03, "full-b", "dgpu")   # aborts a launch
    injector.restore_device(0.05, "full-b", "dgpu")
    injector.throttle_device(0.005, "degrader", "cpu", 4.0, duration_s=0.05)
    for i in range(150):
        router.submit(
            "simple" if i % 3 else "mnist-small", 32 + 7 * i,
            deadline_s=0.05, arrival_s=0.0005 * i,
        )
    router.schedule_health(0.3)
    n_events = 0
    while loop.pending:
        loop.run(max_events=1)
        n_events += 1
        check(nodes)
    assert router.n_pending == 0
    return router, nodes, n_events


def test_load_counters_match_a_recount_at_every_event(serving_predictors):
    """The frontend's running load counters — the one load signal every
    balancer, the autoscaler and the shard summary read — equal a recount
    after every event of a run with a crash and recovery, a dGPU drop and
    restore, a throttle and a degrading node."""

    def check(nodes):
        for node in nodes:
            fe = node.frontend
            assert (fe.queued, fe.outstanding, fe.outstanding_samples) == (
                recount_load(fe)
            ), (node.name, fe.loop.now)

    router, nodes, n_events = faulted_run(serving_predictors, check)
    assert n_events > 500
    assert router.telemetry.resilience.n_crashes_detected == 1
    assert nodes[2].frontend.telemetry.n_degraded > 0
    full_b = nodes[1].frontend
    assert sum(
        full_b.worker_for(d.name).n_aborted
        for d in full_b.backlog.scheduler.context.devices
    ) >= 1
    assert all(fe.outstanding == 0 for fe in (n.frontend for n in nodes))
    assert_counters_match(router)


def assert_handles_owned_once(nodes) -> None:
    """Each handle is held by one frontend at a time, under its own keys.

    A frontend holds a handle while it is pending there, in its crash
    limbo or queued, and only until it resolves; ``_pending`` keys and
    queue arrival-heap keys are the handle's own ``seq`` and
    ``(enqueued_s, seq)``.
    """
    holder: "dict[int, str]" = {}
    for node in nodes:
        fe = node.frontend
        held = {id(r) for r in fe._lost.values()}
        for seq, response in fe._pending.items():
            assert response.seq == seq, (node.name, seq, response)
            assert not response.done, (node.name, response)
            held.add(id(response))
        for queue in fe._queues.values():
            live = Counter(queue._arrival_heap)
            live.subtract(queue._arrival_removed)
            queued = Counter((r.enqueued_s, r.seq) for r in queue)
            assert +live == queued, (node.name, queue.model)
            held.update(id(r) for r in queue)
        for key in held:
            assert holder.setdefault(key, node.name) == node.name, (
                f"a handle is held by both {holder[key]} and {node.name}"
            )


def test_each_handle_is_held_by_one_frontend_at_every_event(
    serving_predictors,
):
    router, nodes, _ = faulted_run(
        serving_predictors, assert_handles_owned_once, holder=True
    )
    res = router.telemetry.resilience
    # The holder's timeouts pull queued handles back out (cancel_queued),
    # and the crash moves handles through the limbo.
    assert nodes[-1].frontend.telemetry.n_served > 0
    assert res.n_timeouts >= 1 and res.n_crashes_detected == 1


def test_batch_telemetry_matches_the_served_handles(serving_predictors):
    """Transient failures inside batches: each node's latency samples and
    served / violation counters equal a recount over its served handles."""
    router = ClusterRouter(
        build_fleet(serving_predictors), balancer="least-ect",
        resilience=RESILIENCE,
    )
    FaultInjector(router).inject_errors(
        0.0, "node-a", rate=0.3, duration_s=1.0, seed=3
    )
    node_a = router.node("node-a").frontend
    failed_in: "set[int]" = set()
    fail = node_a._fail_request

    def recording_fail(response, reason):
        failed_in.add(node_a._n_batches - 1)   # the batch completing now
        fail(response, reason)

    node_a._fail_request = recording_fail
    for i in range(120):
        router.submit(
            "simple" if i % 2 else "mnist-small", 16 + 5 * i,
            deadline_s=0.02 if i % 3 else 2.0, arrival_s=0.0002 * i,
        )
    router.schedule_health(0.5)
    router.run()
    assert router.n_pending == 0
    served = router.result().served
    # Some batch on node-a failed a request and served others.
    assert failed_in & {r.batch_id for r in served if r.node_name == "node-a"}
    assert any(r.deadline_met is False for r in served)
    for node in router.nodes:
        telemetry = node.frontend.telemetry
        mine = [r for r in served if r.node_name == node.name]
        assert telemetry.n_served == len(mine)
        assert telemetry.n_violations == sum(
            r.deadline_met is False for r in mine
        )
        samples = telemetry.latency.samples
        assert sorted(samples) == sorted(r.latency_s for r in mine)
        recent = telemetry.recent
        assert len(recent) == min(len(mine), recent.maxlen)
        assert recent.samples == samples[len(samples) - len(recent):]


def test_fleet_merge_equals_the_sum_over_nodes(serving_predictors):
    """After a crash, a dGPU drop, a throttle and a degrading node, the
    fleet rollup is exactly the per-node ledgers added up."""
    router, nodes, _ = faulted_run(serving_predictors, lambda nodes: None)
    merged = router.telemetry.merged()
    sinks = [node.frontend.telemetry for node in sorted(nodes, key=lambda n: n.name)]
    for name in ("n_served", "n_shed", "n_degraded", "n_violations", "n_failed"):
        assert getattr(merged, name) == sum(getattr(s, name) for s in sinks), name
    assert merged.n_served == len(router.result().served)
    assert merged.latency.samples == sum((s.latency.samples for s in sinks), ())
    assert merged.recent.samples == sum((s.recent.samples for s in sinks), ())
    assert merged.peak_depth == {
        model: max(s.peak_depth.get(model, 0) for s in sinks)
        for model in {m for s in sinks for m in s.peak_depth}
    }
    assert len(merged.batch_sizes) == sum(len(s.batch_sizes) for s in sinks)
    assert sum(merged.batch_sizes.counts.values()) == len(merged.batch_sizes)
    snap = router.stats()
    for key, value in merged.snapshot().items():
        assert snap[key] == value, key
    assert snap["recent_p99_ms"] == router.telemetry.recent_p99_s() * 1e3
