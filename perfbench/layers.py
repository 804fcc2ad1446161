"""Per-layer metrics of the traced run, named after the ``repro`` modules.

Times come from the spans recorded by ``tracing.py``; counts come from the
spans too, or from counters the program already keeps (decision cache,
online predictor, event loop) and from the resolved responses.  A layer a
workload does not exercise reports 0 — ``sharded`` serves in forked
workers, so only its set-up, ``shard.*`` and ``trace.*`` figures are
measured, in the coordinator.  NOTES.md maps each metric to the
end-to-end metric it should move.
"""

from __future__ import annotations

import numpy as np

PER_LAYER = (
    ("sim.loop_s", "s"),
    ("sim.self_s", "s"),
    ("sim.events_per_request", "count"),
    ("cluster.choose_calls", "count"),
    ("cluster.choose_s", "s"),
    ("cluster.probes_per_request", "count"),
    ("serving.admit_s", "s"),
    ("serving.take_s", "s"),
    ("serving.execute_s", "s"),
    ("serving.requests_per_batch", "count"),
    ("serving.shed.queue_full", "count"),
    ("serving.shed.deadline_unmeetable", "count"),
    ("serving.coalesce_wait_ms.p50", "ms"),
    ("serving.coalesce_wait_ms.p99", "ms"),
    ("sched.decide_calls", "count"),
    ("sched.decide_s", "s"),
    ("sched.estimate_calls", "count"),
    ("sched.estimate_s", "s"),
    ("sched.record_calls", "count"),
    ("sched.record_s", "s"),
    ("sched.cache_hit_rate", "fraction"),
    ("sched.cache_invalidations", "count"),
    ("online.observe_calls", "count"),
    ("online.observe_s", "s"),
    ("online.refits", "count"),
    ("online.drift_flags", "count"),
    ("online.fallback_decisions", "count"),
    ("ml.predict_calls", "count"),
    ("ml.predict_rows", "count"),
    ("ml.predict_s", "s"),
    ("ml.fit_s", "s"),
    ("ocl.enqueue_calls", "count"),
    ("ocl.enqueue_s", "s"),
    ("ocl.queue_wait_ms.p99", "ms"),
    ("ocl.service_ms.p50", "ms"),
    ("ocl.service_ms.p99", "ms"),
    ("telemetry.record_s", "s"),
    ("workloads.build_s", "s"),
    ("shard.windows", "count"),
    ("shard.front_choose_s", "s"),
    ("shard.wait_s", "s"),
    ("shard.coordinator_self_s", "s"),
    ("trace.coverage", "fraction"),
    ("trace.overhead", "ratio"),
)


def _ms(values, q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if len(values) else 0.0


def per_layer_metrics(workload, outcome, setup, replay) -> dict:
    """Metrics from one traced set-up and one traced replay.

    ``setup`` and ``replay`` are :class:`tracing.SpanBreakdown` views of
    the two root spans; ``outcome`` is the replay's ReplayOutcome.
    """
    n = len(workload.trace)
    m = {
        "ml.fit_s": setup.inclusive_s("ml.fit"),
        "workloads.build_s": setup.inclusive_s("workloads.build"),
        "trace.coverage": replay.coverage,
    }
    for name in ("cluster.choose", "sched.decide", "sched.estimate",
                 "sched.record", "online.observe", "ml.predict",
                 "ocl.enqueue"):
        m[f"{name}_calls"] = replay.calls(name)
        m[f"{name}_s"] = replay.inclusive_s(name)
    for name in ("serving.admit", "serving.take", "serving.execute",
                 "telemetry.record", "shard.front_choose", "shard.wait"):
        m[f"{name}_s"] = replay.inclusive_s(name)
    m["sim.loop_s"] = replay.inclusive_s("sim.loop")
    m["sim.self_s"] = replay.self_s("sim.loop")
    m["cluster.probes_per_request"] = (
        replay.calls_under("sched.estimate", "cluster.choose") / n
    )
    m["ml.predict_rows"] = replay.predict_rows

    router = outcome.router
    if router is None:  # sharded: the coordinator's own view
        m["shard.windows"] = outcome.result.n_windows
        m["shard.coordinator_self_s"] = float(replay.self_time[0])
        return m

    m["sim.events_per_request"] = router.loop.processed / n
    cache = router.decision_cache_stats()
    m["sched.cache_hit_rate"] = cache["hit_rate"]
    m["sched.cache_invalidations"] = (
        cache["refit_clears"] + cache["feedback_invalidations"]
        + cache["drift_invalidations"]
    )
    online = router.stats().get("online", {})
    m["online.refits"] = online.get("refits", 0)
    m["online.drift_flags"] = online.get("drift_flags", 0)
    m["online.fallback_decisions"] = online.get("fallback_decisions", 0)

    coalesce, queue_wait, service = [], [], []
    shed: "dict[str, int]" = {}
    batches = set()
    for r in outcome.result.responses:
        inner = r.inner
        if r.served:
            coalesce.append(inner.dispatched_s - r.request.arrival_s)
            queue_wait.append(inner.start_s - inner.dispatched_s)
            service.append(inner.end_s - inner.start_s)
            batches.add((r.node_name, inner.batch_id))
        elif r.status == "shed":
            shed[r.shed_reason] = shed.get(r.shed_reason, 0) + 1
    m["serving.requests_per_batch"] = len(coalesce) / max(len(batches), 1)
    m["serving.shed.queue_full"] = shed.get("queue_full", 0)
    m["serving.shed.deadline_unmeetable"] = shed.get("deadline_unmeetable", 0)
    m["serving.coalesce_wait_ms.p50"] = _ms(coalesce, 50.0)
    m["serving.coalesce_wait_ms.p99"] = _ms(coalesce, 99.0)
    m["ocl.queue_wait_ms.p99"] = _ms(queue_wait, 99.0)
    m["ocl.service_ms.p50"] = _ms(service, 50.0)
    m["ocl.service_ms.p99"] = _ms(service, 99.0)
    return m

