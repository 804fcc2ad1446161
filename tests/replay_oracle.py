"""The reference replay ``serve_trace`` is held to: one event per request.

``serve_trace`` on :class:`~repro.serving.ServingFrontend` and
:class:`~repro.cluster.ClusterRouter` ingests a trace through a
:class:`~repro.sim.engine.TraceCursor` that fires once per run of equal
timestamps.  The oracle below submits the same requests one at a time
through ``submit_request`` — one heap event per arrival, no cursor, no
run batching, no up-front balancer ``prepare`` — and drains the loop.
Both must resolve every request digit for digit identically.
"""

from repro.serving import ServingResult


def serve_per_request(frontend, trace) -> ServingResult:
    """Replay ``trace`` through a frontend by one ``submit_request`` each."""
    responses = [frontend.submit_request(request) for request in trace]
    frontend.run()
    return ServingResult(responses=responses, telemetry=frontend.telemetry)


def route_per_request(router, trace):
    """Replay ``trace`` through a router by one ``submit_request`` each.

    Arms the same heartbeat horizon ``serve_trace`` arms when the router
    was built with a resilience config.
    """
    responses = [router.submit_request(request) for request in trace]
    if router.resilience is not None and responses:
        router.schedule_health(
            responses[-1].request.arrival_s + router.resilience.heartbeat_tail_s
        )
    router.run()
    return router.result()


def serving_signature(result):
    """Every frontend outcome field plus the telemetry snapshot."""
    rows = [
        (
            r.request.request_id, r.status, r.device, r.device_name,
            r.trigger, r.batch_id, r.batch_size, r.dispatched_s,
            r.start_s, r.end_s, r.energy_j, r.degraded, r.shed_reason,
        )
        for r in result.responses
    ]
    return rows, result.telemetry.snapshot()


def cluster_signature(result):
    """Every routed outcome field plus the fleet telemetry snapshot."""
    rows = []
    for r in result.responses:
        inner = r.inner
        rows.append((
            r.request.request_id, r.status, r.node_name, r.n_routes,
            r.shed_reason,
            None if inner is None else inner.device,
            None if inner is None else inner.device_name,
            None if inner is None else inner.end_s,
            None if inner is None else inner.energy_j,
        ))
    return rows, result.telemetry.snapshot()
