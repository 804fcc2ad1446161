"""The reference replays ``serve_trace`` is held to: events per request.

``serve_trace`` on :class:`~repro.serving.ServingFrontend` and
:class:`~repro.cluster.ClusterRouter` ingests a trace through a
:class:`~repro.sim.engine.TraceCursor` that fires once per run of equal
timestamps.  The oracles below submit the same requests one at a time
through ``submit_request`` — one heap event per arrival, no cursor, no
run batching, no up-front balancer ``prepare`` — and drain the loop.
Both must resolve every request digit for digit identically.

The router also delivers a lone arrival inside its route event, with
the completion delay least-ECT probed, whenever no other event is due at
that instant.  :class:`TwoEventRouter` keeps the placement step that
never does: the route event always schedules the node's arrival event,
which estimates the delay afresh.  Built in place of a
:class:`~repro.cluster.ClusterRouter` and fed by :func:`route_per_request`,
it is the two-event reference both ``serve_trace`` and per-request
``submit_request`` must equal.

The signatures compare every outcome field and the telemetry; given the
frontend or router they also compare the per-model admission counters,
and given a :func:`recorded_resolutions` log, the order in which the
resolution hooks fired.
"""

from contextlib import contextmanager
from functools import partial

from repro.cluster.router import ClusterRouter
from repro.serving import ServingResult
from repro.serving.frontend import ServingResponse


class TwoEventRouter(ClusterRouter):
    """A router whose every first route schedules a separate arrival event."""

    def _place(self, response, why, _loop=None):
        request = response.request
        active = self.routable_nodes()
        if not active:
            response.resolve("shed", "no_active_node")
            detail = f"request {request.request_id}"
            if why is not None:
                detail += f" ({why}, no target)"
            self._log("route_failed", "-", detail)
            return None
        spec = self.specs[request.model]
        node = self.balancer.choose(active, request, spec, self.loop.now)
        frontend = node.frontend
        response.node_name = node.name
        response.n_routes += 1
        if why is None:
            frontend.register_request(response)
            self.loop.schedule(
                self.loop.now, partial(frontend.deliver, response),
                label="arrive",
            )
        else:
            frontend.readmit(response)
        self._arm_timeout(response)
        return node


@contextmanager
def recorded_resolutions():
    """Log every resolution, in the order the resolutions happen.

    Wraps :meth:`ServingResponse.resolve`, the one resolution point,
    while the block runs and yields the log: ``(request_id, status,
    shed_reason)`` per resolution, one per request.
    """
    log = []
    resolve = ServingResponse.resolve

    def recording(response, status, shed_reason=None):
        log.append((response.request.request_id, status, shed_reason))
        return resolve(response, status, shed_reason)

    ServingResponse.resolve = recording
    try:
        yield log
    finally:
        ServingResponse.resolve = resolve


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


#: (router class, replay) pairs a router replay is compared under, the
#: two-event reference first.
ROUTER_REPLAYS = (
    (TwoEventRouter, route_per_request),
    (ClusterRouter, route_per_request),
    (ClusterRouter, ClusterRouter.serve_trace),
)


def serving_signature(result, frontend=None, resolutions=None):
    """Every frontend outcome field plus the telemetry snapshot.

    With ``frontend``, also its per-model admission counters; with
    ``resolutions``, the logged order of resolution-hook firings.
    """
    rows = [
        (
            r.request.request_id, r.status, r.device, r.device_name,
            r.trigger, r.batch_id, r.batch_size, r.dispatched_s,
            r.start_s, r.end_s, r.energy_j, r.degraded, r.shed_reason,
        )
        for r in result.responses
    ]
    signature = (rows, result.telemetry.snapshot())
    if frontend is not None:
        signature += (frontend.stats()["admission"],)
    if resolutions is not None:
        signature += (list(resolutions),)
    return signature


def cluster_signature(result, router=None, resolutions=None):
    """Every routed outcome field plus the fleet telemetry snapshot.

    With ``router``, also every node's per-model admission counters;
    with ``resolutions``, the logged order of resolution-hook firings.
    """
    rows = [
        (
            r.request.request_id, r.status, r.node_name, r.n_routes,
            r.shed_reason, r.device, r.device_name, r.end_s, r.energy_j,
        )
        for r in result.responses
    ]
    signature = (rows, result.telemetry.snapshot())
    if router is not None:
        signature += ({
            node.name: node.frontend.stats()["admission"]
            for node in router.nodes
        },)
    if resolutions is not None:
        signature += (list(resolutions),)
    return signature
