"""The SLO-aware serving frontend: queues → coalescer → placement → workers.

This is the serving loop the rest of :mod:`repro.serving` plugs into: a
one-class façade (``submit(model, x, deadline_s, policy)`` returns real
scores, where the request ran and what it cost) running over the
discrete-event engine so thousands of queued, coalesced, deadline-carrying
requests replay deterministically:

1. ``submit``, ``submit_request`` and ``serve_trace`` hand their requests
   to the frontend's :attr:`~ServingFrontend.ingress`, a one-node
   :class:`~repro.cluster.router.ClusterRouter`, which routes each one at
   its arrival instant on the :class:`~repro.sim.engine.EventLoop` (one
   ingestion path and one tie rule for a frontend alone or in a fleet;
   see ``docs/workloads.md``);
2. at arrival, the :class:`~repro.serving.admission.AdmissionController`
   accepts / sheds / degrades against the per-model SLO config, using the
   backlog scheduler's learned completion estimates;
3. accepted requests sit in a per-model FIFO/EDF queue until the
   :class:`~repro.serving.coalescer.BatchCoalescer` fires (full batch, or
   the oldest request has waited ``max_wait_s``), which takes one batch
   off the queue in a single ``pop_upto``;
4. the coalesced batch is placed by the paper's scheduler
   (:class:`~repro.sched.backlog.BacklogAwareScheduler`, which wraps the
   Fig. 5 predictor) and executed by that device's
   :class:`~repro.serving.workers.DeviceWorker`;
5. completion resolves every merged request's future-like
   :class:`ServingResponse` and feeds the realized service time back into
   the scheduler's outcome table.

A run of same-instant arrivals (one router delivery event) is admitted
per model *segment* rather than per request: each arrival costs the
shared admission check against a running count of the places left in
its queue, and the accepted ones are appended to the segment and pushed
in bulk when the run ends, or just before anything else can look at the
queue (a ``full`` flush, a degrade, a shed's resolution hook).  The
first push into an empty queue takes the per-request path, so its flush
timer is armed exactly where one arrival event per request would arm
it; every later push needs no timer, because a non-empty queue always
has one armed no later than its oldest entry's ``max_wait_s``.
Outcomes, counters and event order are those of one :meth:`deliver
<ServingFrontend.deliver>` per arrival.

With :data:`IMMEDIATE_DISPATCH` and ``max_rank=1`` the frontend places
every request alone, at its arrival, on the predictor's top-ranked device:
the Fig. 5 scheduler replaying a stream one request at a time, which is
how prediction accuracy is read off a trace (``response.gpu_state`` is
the dGPU state the placement probed).

Everything observable flows through
:class:`~repro.telemetry.serving.ServingTelemetry`: latency percentiles,
queue depth over time, the coalesced batch-size histogram, and
shed/violation counters.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from functools import partial
from operator import attrgetter

import numpy as np

from repro.checks import require_count, require_finite, require_host_batch
from repro.errors import SchedulerError
from repro.nn.builders import ModelSpec
from repro.ocl.event import Event
from repro.sched.backlog import BacklogAwareScheduler, BacklogDecision
from repro.sched.policies import Policy
from repro.sched.scheduler import OnlineScheduler
from repro.serving.admission import AdmissionController, AdmissionDecision
from repro.serving.coalescer import BatchCoalescer, CoalescedBatch
from repro.serving.outcomes import Outcomes, meets_deadline
from repro.serving.queues import RequestQueue, make_queue
from repro.serving.workers import DeviceWorker, LaunchRecord
from repro.sim.engine import EventLoop
from repro.telemetry.serving import ServingTelemetry
from repro.workloads.requests import InferenceRequest, RequestTrace

__all__ = [
    "SLOConfig",
    "IMMEDIATE_DISPATCH",
    "ServingResponse",
    "ServingResult",
    "ServingFrontend",
]

@dataclass(frozen=True)
class SLOConfig:
    """Per-model service-level objective and queueing/batching knobs.

    Parameters
    ----------
    deadline_s:
        Default relative deadline stamped on requests that arrive without
        one (None = best effort, never ECT-rejected).
    max_queue_depth:
        Queue bound enforced by admission (None = unbounded).
    max_batch:
        Coalescing target in *samples*; a full batch dispatches at once.
    max_wait_s:
        Longest a queued request may wait for co-riders before the batch
        dispatches anyway.
    discipline:
        Queue pop order: 'fifo' or 'edf' (earliest deadline first).
    degrade:
        Shed to the cheapest (lowest-power) device instead of dropping.
    ect_margin:
        Safety factor on completion estimates in the admission check.
    """

    deadline_s: "float | None" = None
    max_queue_depth: "int | None" = 64
    max_batch: int = 8192
    max_wait_s: float = 0.05
    discipline: str = "fifo"
    degrade: bool = False
    ect_margin: float = 1.0

    def __post_init__(self) -> None:
        if self.deadline_s is not None:
            require_finite("deadline_s", self.deadline_s)
        if self.max_queue_depth is not None:
            require_count("max_queue_depth", self.max_queue_depth)
        require_count("max_batch", self.max_batch)
        require_finite("max_wait_s", self.max_wait_s, positive=False)
        if self.discipline not in ("fifo", "edf"):
            raise ValueError(f"unknown discipline {self.discipline!r}")
        require_finite("ect_margin", self.ect_margin)


#: One request per launch, dispatched at arrival, never refused: no
#: coalescing wait, no queue bound, no deadline.
IMMEDIATE_DISPATCH = SLOConfig(
    deadline_s=None, max_queue_depth=None, max_batch=1, max_wait_s=0.0
)

#: Node name of a standalone frontend in its one-node ingress: the
#: ``node_name`` its handles carry.
INGRESS_NODE = "serving"


@dataclass(slots=True)
class _Segment:
    """One model's share of a same-instant delivery run on one frontend.

    ``pending`` holds handles admitted in the run and not yet pushed;
    ``room`` (places left in the queue) and ``samples`` (samples queued
    plus pending) count them and are only meaningful while ``pending``
    is non-empty — an empty segment reads both off the queue afresh.
    """

    model: str
    queue: RequestQueue
    admission: AdmissionController
    sinks: "tuple[ServingTelemetry, ...]"
    capacity: int                 # max_queue_depth; sys.maxsize if unbounded
    max_batch: int
    pending: "list[ServingResponse]" = field(default_factory=list)
    room: int = 0
    samples: int = 0

    def materialize(self) -> None:
        """Push the pending handles in one go and record the new depth."""
        queue = self.queue
        queue.push_many(self.pending)
        self.pending.clear()
        depth = len(queue)
        for sink in self.sinks:
            sink.record_depth(self.model, depth)


def _launched(name: str) -> property:
    """A read-only view of one :class:`LaunchRecord` field, None until served."""
    get = attrgetter(name)
    return property(lambda self: None if self.launch is None else get(self.launch))


class ServingResponse:
    """The one future-like handle for one request.

    Starts 'pending'; resolves to 'ok' when its batch completes or 'shed'
    when admission (or the cluster router) refuses it.  Degraded requests
    resolve 'ok' with :attr:`degraded` set.

    The handle is also the request's queue entry: queues, coalesced
    batches and the crash limbo hold it directly.  The frontend that owns
    it stamps :attr:`enqueued_s` and :attr:`seq` (its submission order
    there) when it registers or readmits the handle, never while the
    handle is queued; :attr:`x` holds the host samples until resolution.

    A served handle holds its batch's shared :class:`LaunchRecord` in
    :attr:`launch` (None while pending, shed or failed); ``device``,
    ``end_s`` and the other launch fields read through to it, None
    without one, and :attr:`energy_j` is its sample share of the energy.

    Every request is routed, a standalone frontend's through its one-node
    ingress, and keeps this handle across every drain, retry and crash
    re-adoption: the router creates it, sets :attr:`node_name` and counts
    placements in :attr:`n_routes`, and each move hands it to the next
    frontend's ``readmit``.
    ``on_done``, an optional hook set before the loop runs past the
    request, fires once from :meth:`resolve`; cascade executors chain
    stages through it.
    """

    __slots__ = (
        "request", "status", "node_name", "n_routes", "launch", "scores",
        "degraded", "shed_reason", "on_done", "_ledger", "enqueued_s", "seq",
        "x",
    )

    device = _launched("device")               # device-class value
    device_name = _launched("device_name")
    gpu_state = _launched("gpu_state")         # dGPU state probed at placement
    trigger = _launched("trigger")             # what dispatched its batch
    batch_id = _launched("batch_id")           # which coalesced batch served it
    batch_size = _launched("size")             # coalesced launch size
    dispatched_s = _launched("dispatched_s")   # when its batch was formed
    start_s = _launched("start_s")
    end_s = _launched("end_s")

    def __init__(self, request: InferenceRequest, ledger=None):
        self.request = request
        self.status = "pending"
        self.enqueued_s = self.seq = self.x = None  # see the class docstring
        self.node_name: "str | None" = None       # the serving node, once routed
        self.n_routes = 0                         # placements so far
        self.launch: "LaunchRecord | None" = None
        self.scores: "np.ndarray | None" = None
        self.degraded = False
        self.shed_reason: "str | None" = None
        self.on_done: "Callable[[ServingResponse], None] | None" = None
        self._ledger = ledger   # router whose counters the resolution moves

    def resolve(self, status: str, shed_reason: "str | None" = None) -> bool:
        """The one resolution point: leave 'pending' as 'ok' or 'shed'.

        A served handle has its :attr:`launch` set before the call.  Drops
        the host samples, moves the owning router's ledger counters, then
        fires (and consumes) ``on_done``; returns whether a served request
        missed its deadline, the one verdict both ledgers count.  A second
        resolution raises: every move path takes the request off its old
        frontend before handing it on, so no stale attempt stays live.
        """
        if self.status != "pending":
            raise SchedulerError(
                f"request {self.request.request_id} already resolved "
                f"({self.status}); cannot resolve it again as {status}"
            )
        self.status = status
        self.shed_reason = shed_reason
        self.x = None
        late = status == "ok" and (
            meets_deadline(self.launch.end_s, self.request.deadline_s) is False
        )
        ledger = self._ledger
        if ledger is not None:
            ledger._n_resolved += 1
            ledger._n_good += status == "ok" and not late
        hook = self.on_done
        if hook is not None:
            self.on_done = None
            hook(self)
        return late

    @property
    def done(self) -> bool:
        return self.status != "pending"

    @property
    def served(self) -> bool:
        return self.status == "ok"

    @property
    def batch(self) -> int:
        """Samples in this request."""
        return self.request.batch

    @property
    def deadline_s(self) -> "float | None":
        """Absolute completion deadline (None = best effort)."""
        return self.request.deadline_s

    def slack_s(self, now: float) -> float:
        """Seconds until the deadline (inf without one; negative if past)."""
        deadline = self.request.deadline_s
        return float("inf") if deadline is None else deadline - now

    @property
    def energy_j(self) -> "float | None":
        """This request's share of its launch's energy, by samples."""
        launch = self.launch
        if launch is None:
            return None
        return launch.energy_j * self.request.batch / launch.size

    @property
    def inner(self) -> "ServingResponse":
        """This handle itself: a read-only alias only ``perfbench/`` uses."""
        return self

    def outcome_tuple(self) -> tuple:
        """The resolved outcome, serialized for digesting and IPC.

        ``(request_id, status, node, device, end_s, shed_reason)``: the
        fields the determinism digests hash (:mod:`repro.shard.digest`)
        and sharded workers ship.
        """
        launch = self.launch
        return (
            self.request.request_id,
            self.status,
            self.node_name,
            None if launch is None else launch.device,
            None if launch is None else launch.end_s,
            self.shed_reason,
        )

    @property
    def latency_s(self) -> float:
        """Arrival-to-completion time (served requests only).

        Counts from the request's *effective* arrival — the chain's first
        arrival for escalated follow-up requests — so end-to-end latency
        honestly includes the time earlier stages (and earlier nodes)
        already spent.
        """
        if not self.served:
            raise SchedulerError(f"request is {self.status}, has no latency")
        return self.launch.end_s - self.request.effective_arrival_s

    @property
    def deadline_met(self) -> "bool | None":
        """Whether the SLO held (None if best-effort or not served)."""
        if not self.served:
            return None
        return meets_deadline(self.launch.end_s, self.request.deadline_s)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServingResponse(id={self.request.request_id}, status={self.status!r}, "
            f"node={self.node_name!r}, device={self.device!r})"
        )


@dataclass
class ServingResult(Outcomes):
    """Aggregate outcome of serving a trace through the frontend."""

    responses: list[ServingResponse] = field(default_factory=list)
    telemetry: ServingTelemetry = field(default_factory=ServingTelemetry)

    @property
    def outcomes(self) -> list[ServingResponse]:
        return self.responses

    @property
    def total_energy_j(self) -> float:
        return float(sum(r.energy_j for r in self.served))

    def device_shares(self) -> dict[str, float]:
        """Fraction of served requests per device class."""
        return self._shares("device")


class ServingFrontend:
    """SLO-aware serving over the paper's per-request placement oracle.

    Parameters
    ----------
    scheduler:
        A warmed-up :class:`OnlineScheduler` (its predictor is the
        placement prior; its command queues are the devices).
    specs:
        Deployed model specs by name (must match the dispatcher).
    slo:
        Per-model :class:`SLOConfig` overrides; ``default_slo`` fills gaps.
    policy:
        Policy whose predictor ranks placement candidates.
    max_rank:
        Devices eligible for backlog spilling (see BacklogAwareScheduler).
    loop:
        Bring-your-own event loop (e.g. to co-simulate other actors).
    tenants:
        Optional :class:`~repro.partition.tenants.TenantSet` attributing
        requests to tenants by model ownership.  With one installed,
        every outcome of a tenant's model is also deposited in that
        tenant's ledger (``telemetry.tenants[name]``, a full
        :class:`ServingTelemetry`); without one, nothing tenant-shaped is
        recorded and snapshots stay byte-identical.
    """

    def __init__(
        self,
        scheduler: OnlineScheduler,
        specs: "dict[str, ModelSpec]",
        slo: "dict[str, SLOConfig] | None" = None,
        default_slo: "SLOConfig | None" = None,
        policy: "Policy | str" = Policy.THROUGHPUT,
        max_rank: int = 2,
        loop: "EventLoop | None" = None,
        tenants: "TenantSet | None" = None,
    ):
        if not specs:
            raise SchedulerError("serving frontend needs at least one model spec")
        self.specs = dict(specs)
        self.loop = loop if loop is not None else EventLoop()
        self.backlog = BacklogAwareScheduler(
            scheduler, policy=policy, max_rank=max_rank
        )
        self.telemetry = ServingTelemetry()
        # Online-predictor telemetry: the callable answers None with a
        # plain predictor, so frozen-predictor snapshots are unchanged.
        self.telemetry.online = self.backlog.online_stats

        self.tenants = tenants
        # Every deposit for a model goes to each of its sinks: this
        # frontend's telemetry, plus the owning tenant's ledger.
        self._sinks = {name: (self.telemetry,) for name in self.specs}
        if tenants is not None:
            unknown = set(tenants.model_names) - set(self.specs)
            if unknown:
                raise SchedulerError(
                    f"tenant models not deployed: {sorted(unknown)}"
                )
            for tenant in tenants:   # every ledger exists from t=0
                ledger = self.telemetry.tenants[tenant.name] = ServingTelemetry()
                for model in tenant.models:
                    self._sinks[model] = (self.telemetry, ledger)

        self._slo = dict(slo or {})
        unknown = set(self._slo) - set(self.specs)
        if unknown:
            raise SchedulerError(f"SLO configs for undeployed models: {sorted(unknown)}")
        self._default_slo = default_slo if default_slo is not None else SLOConfig()

        self._queues = {}
        self._coalescers = {}
        self._admission = {}
        self._segments: "dict[str, _Segment]" = {}
        for name in self.specs:
            cfg = self.slo_for(name)
            queue = make_queue(cfg.discipline, name, cfg.max_queue_depth)
            self._queues[name] = queue
            self._coalescers[name] = BatchCoalescer(queue, cfg.max_batch, cfg.max_wait_s)
            self._admission[name] = AdmissionController(
                degrade=cfg.degrade, ect_margin=cfg.ect_margin
            )
            self._segments[name] = _Segment(
                name, queue, self._admission[name], self._sinks[name],
                cfg.max_queue_depth or sys.maxsize, cfg.max_batch,
            )

        context = scheduler.context
        self._workers = {d.name: self._make_worker(d) for d in context.devices}
        # Degrade target: the lowest-power device (cheapest to burn).
        self._cheapest = min(context.devices, key=lambda d: d.spec.busy_watts)

        self._ingress = None   # built on first submission, see ingress
        # This frontend's node name once a ClusterRouter routes it (its own
        # ingress included): a fleet's node then has no ingress of its own.
        self._routed_as: "str | None" = None
        self._seq = 0
        self._n_batches = 0
        # Handles this frontend still answers for, by seq: registered and
        # not yet resolved here or handed on (arriving, queued, in an open
        # run's segment, in flight, or in the crash limbo).
        self._pending: dict[int, ServingResponse] = {}
        self._timer_at: dict[str, "float | None"] = {name: None for name in self.specs}
        self._in_flight = 0          # requests dispatched, not yet completed
        self._in_flight_samples = 0
        # Delivery-run state, non-None only between begin_arrival_batch()
        # and end_arrival_batch(), while a run of same-timestamp entries
        # is delivered.  The completion-estimate memo: between dispatches
        # nothing that estimate_completion reads can change at a fixed
        # instant, so one (model, batch) probe serves the run; every
        # dispatch path clears it (the dispatch moves command queues),
        # which keeps admission decisions bit-identical to one deliver
        # per arrival outside a run.  The run list: segments holding
        # admitted, not yet pushed entries (shared by every frontend of a
        # cluster delivery run), pushed by _materialize_run.
        self._est_memo: "dict[tuple[str, int], float] | None" = None
        self._run: "list[_Segment] | None" = None

        # -- resilience state (inert unless faults are injected) -----------
        # crashed: fail-stop flag; while set, arrivals fall into the lost
        # limbo instead of the queues (the process is gone — nobody answers)
        # until a health check collects them for re-adoption elsewhere.
        self.crashed = False
        self._lost: "dict[int, ServingResponse]" = {}
        self._dropped: "set[str]" = set()   # device classes out of service
        # Transient-error model (repro.faults.profile.ErrorProfile); draws
        # happen only inside its active windows, so a None/idle profile
        # leaves results digit-identical.
        self.fault_profile = None
        # Cluster hook: called with (response, reason) when a request's
        # launch fails, it takes ownership (retry / shed at the router);
        # without one, this frontend sheds the request locally.
        self.on_request_failed = None

    def _make_worker(self, device) -> DeviceWorker:
        scheduler = self.backlog.scheduler
        return DeviceWorker(
            loop=self.loop,
            device_name=device.name,
            device_class=device.device_class.value,
            command_queue=scheduler.queue_for(device.name),
            dispatcher=scheduler.dispatcher,
            on_complete=self._on_complete,
        )

    # -- configuration -----------------------------------------------------

    def slo_for(self, model: str) -> SLOConfig:
        """The effective SLO config for a model (override or default)."""
        return self._slo.get(model, self._default_slo)

    # -- submission --------------------------------------------------------

    @property
    def ingress(self) -> "ClusterRouter":
        """The one-node router that ingests this frontend's submissions.

        A standalone frontend is served as a one-node fleet (node
        :data:`INGRESS_NODE`): ``submit``, ``submit_request`` and
        ``serve_trace`` hand their requests to this router, built on
        first use, so they route, tie-break and ledger exactly as a
        :class:`~repro.cluster.router.ClusterRouter` over this frontend
        alone does.  A frontend that a fleet's router routes to has no
        ingress of its own: submissions go to that router, so asking
        raises :class:`~repro.errors.SchedulerError` before anything is
        ledgered.
        """
        if self._ingress is None:
            if self._routed_as is not None:
                raise SchedulerError(
                    f"node {self._routed_as!r} is routed by a ClusterRouter: "
                    "submit to the router, not to the node's frontend"
                )
            # repro.cluster imports this module, so it loads at call time.
            from repro.cluster.node import ClusterNode
            from repro.cluster.router import ClusterRouter

            self._ingress = ClusterRouter([ClusterNode(INGRESS_NODE, self)])
        return self._ingress

    def submit(
        self,
        model: str,
        x: "np.ndarray | int",
        deadline_s: "float | None" = None,
        policy: "Policy | str | None" = None,
        arrival_s: "float | None" = None,
    ) -> ServingResponse:
        """Submit one request; returns immediately with a pending response.

        ``x`` is either a host batch (real scores come back), whose rows
        must match the model's input shape, or a bare positive integer
        batch size (timing/energy only).  ``deadline_s`` is the *relative*
        SLO from arrival; omitted, the model's configured default applies.
        ``policy`` must be the frontend's placement policy (one frontend
        places under one predictor); omitted, it is stamped on the request.
        The request id is the ingress ledger's next free one.  The work
        itself happens when the event loop runs past the arrival.
        """
        spec = self._require_spec(model)
        placement_policy = self.backlog.policy
        if policy is not None and Policy.parse(policy) is not placement_policy:
            raise SchedulerError(
                f"policy {str(policy)!r} does not match this frontend's "
                f"placement policy {placement_policy.value!r}"
            )
        if isinstance(x, np.ndarray):
            require_host_batch(x, spec)
            batch, data = x.shape[0], x
        else:
            batch, data = x, None
        arrival = self.loop.now if arrival_s is None else float(arrival_s)
        cfg = self.slo_for(model)
        relative = deadline_s if deadline_s is not None else cfg.deadline_s
        ingress = self.ingress
        request = InferenceRequest(
            request_id=ingress._seq,   # one past the highest id ledgered
            arrival_s=arrival,
            model=spec.name,
            batch=batch,
            policy=placement_policy.value,
            deadline_s=None if relative is None else arrival + relative,
        )
        return ingress.submit_request(request, data)

    def submit_request(
        self, request: InferenceRequest, x: "np.ndarray | None" = None
    ) -> ServingResponse:
        """Submit a pre-built trace request through the :attr:`ingress`.

        Its own deadline wins; requests without one inherit the model's
        configured default SLO when they arrive, so plain traces can still
        drive deadline-aware serving.  ``x``, when given, must hold
        ``request.batch`` rows of the model's input.  Ids are unique per
        frontend: a repeated one raises.
        """
        return self.ingress.submit_request(request, x)

    def register_request(self, response: ServingResponse) -> None:
        """Register a routed handle; the router delivers it itself.

        The router already validated the request (model, id, arrival
        time), so only the model's default deadline is stamped here;
        :meth:`deliver` runs the arrival.
        """
        request = response.request
        if request.deadline_s is None:
            relative = self.slo_for(request.model).deadline_s
            if relative is not None:
                response.request = replace(
                    request, deadline_s=request.arrival_s + relative
                )
        self._register_arrival(response, request.arrival_s)

    def deliver(
        self, response: ServingResponse, _loop=None,
        est_delay: "float | None" = None,
    ) -> None:
        """Process a registered handle's arrival at the current instant.

        Outside a run it is the per-request path's arrival event (the
        router schedules it as one when other events are due at this
        instant).  Inside one (between :meth:`begin_arrival_batch` and
        :meth:`end_arrival_batch`) the handle joins its model's segment:
        the shared admission check against the segment's running room
        and sample counts, then an append, or a shed resolved in place.
        Appended handles reach the queue at the latest when the run
        ends; outcomes are those of the per-request path either way.

        ``est_delay``, when given, is this frontend's
        ``estimate_completion`` delay for the request, probed at this
        instant with nothing run since; admission then uses it instead
        of probing again (the cluster router hands over least-ECT's).
        """
        run = self._run
        if run is None or self.crashed:
            self._on_arrival(response, est_delay=est_delay)
            return
        now = self.loop.now
        request = response.request
        model = request.model
        batch = request.batch
        if est_delay is None:
            est_delay = self._est_memo.get((model, batch))
        if est_delay is None:
            est_delay = self._estimate(model, batch, now)
        segment = self._segments[model]
        pending = segment.pending
        if pending:
            room, samples = segment.room, segment.samples
            empty = False
        else:
            queue = segment.queue
            depth = len(queue)
            room = segment.capacity - depth
            samples = queue.total_samples
            empty = not depth
        refused = segment.admission.check(
            room > 0, request.deadline_s, now, est_delay
        )
        if refused is not None:
            self._refuse(response, refused)
        elif empty:
            # First push into an empty queue: the per-request path, so the
            # flush timer it arms takes the same place in the event order.
            self._enqueue(model, segment.queue, response, now)
        else:
            # The queue is non-empty, so a timer no later than the oldest
            # entry's max wait is already armed; only a full batch needs
            # anything beyond the append.
            if not pending:
                run.append(segment)
            pending.append(response)
            samples += batch
            if samples >= segment.max_batch:
                self._flush(model, "full")
            else:
                segment.room = room - 1
                segment.samples = samples

    def begin_arrival_batch(self, run: "list[_Segment]") -> bool:
        """Open a delivery run: arm the estimate memo and the segments.

        ``run`` is the (empty) list of segments with handles still to
        push; a router delivery run passes one list to all its frontends,
        so that anything that ends a segment early (a flush, a degrade, a
        shed's resolution hook) pushes every frontend's pending handles
        first.  Returns True when this call opened the run (the caller
        must then call :meth:`end_arrival_batch`), False when a run is
        already open.
        """
        if self._run is not None:
            return False
        self._run = run
        self._est_memo = {}
        return True

    def end_arrival_batch(self) -> None:
        """Close a delivery run: push what is pending, disarm the memo."""
        if self._run:
            self._materialize_run()
        self._run = None
        self._est_memo = None

    def serve_trace(self, trace: RequestTrace) -> ServingResult:
        """Replay a whole trace through the :attr:`ingress`; drain the loop.

        The ingress checks the trace whole (deployed models, unique ids,
        arrival order) before it ledgers anything, then routes each run of
        equal timestamps in one event and delivers it in the next, per
        model segment (see the module docstring and
        :meth:`~repro.cluster.router.ClusterRouter.feed_requests`).
        """
        responses = self.ingress.feed_requests(trace)
        self.run()
        return ServingResult(responses=responses, telemetry=self.telemetry)

    def run(self, until: "float | None" = None) -> float:
        """Drive the event loop (arrivals, flush timers, completions)."""
        return self.loop.run(until=until)

    # -- internals ---------------------------------------------------------

    def _require_spec(self, model: str) -> ModelSpec:
        try:
            return self.specs[model]
        except KeyError:
            known = ", ".join(sorted(self.specs)) or "<none>"
            raise SchedulerError(
                f"model {model!r} is not served; deployed: {known}"
            ) from None

    def _register_arrival(
        self, response: ServingResponse, enqueued_s: float
    ) -> None:
        """Take a handle into this frontend's ledger: the one place that
        stamps its ``(enqueued_s, seq)``, always while it is off-queue."""
        seq = self._seq
        self._seq = seq + 1
        response.enqueued_s = enqueued_s
        response.seq = seq
        self._pending[seq] = response

    def _on_arrival(
        self, response: ServingResponse, est_delay: "float | None" = None
    ) -> None:
        if self.crashed:
            # The process is gone: nothing answers, nothing is refused.
            # The handle waits in limbo until a health check collects it
            # (or a timeout rescues it) — exactly one of the two, since
            # both remove it physically.
            self._lost[response.seq] = response
            return
        now = self.loop.now
        request = response.request
        model = request.model
        queue = self._queues[model]
        if est_delay is None:
            est_delay = self._estimate(model, request.batch, now)
        decision = self._admission[model].admit(
            request, queue, now, est_delay_s=est_delay
        )
        if decision.admitted:
            self._enqueue(model, queue, response, now)
        else:
            self._refuse(response, decision)

    def _estimate(self, model: str, batch: int, now: float) -> "float | None":
        """The admission estimate, through the run's memo when one is open."""
        memo = self._est_memo
        if memo is None:
            return self.backlog.estimate_completion(self.specs[model], batch, now)[1]
        key = (model, batch)
        est_delay = memo.get(key)
        if est_delay is None:
            est_delay = self.backlog.estimate_completion(
                self.specs[model], batch, now
            )[1]
            memo[key] = est_delay
        return est_delay

    def _enqueue(
        self, model: str, queue: RequestQueue, response: ServingResponse,
        now: float,
    ) -> None:
        """Push one admitted handle; dispatch a full batch or arm its timer."""
        queue.push(response)
        depth = len(queue)
        for sink in self._sinks[model]:
            sink.record_depth(model, depth)
        if self._coalescers[model].ready(now) == "full":
            self._flush(model, "full")
        else:
            self._arm_timer(model)

    def _refuse(
        self, response: ServingResponse, decision: AdmissionDecision
    ) -> None:
        """Resolve a refused arrival: shed it, or degrade it."""
        if decision.action == "degrade":
            for sink in self._sinks[response.request.model]:
                sink.n_degraded += 1
            self._run_degraded(response)
            return
        if self._run:
            # The resolution hook may look at any queue of the run.
            self._materialize_run()
        del self._pending[response.seq]
        self._shed(response, decision.reason)

    def _materialize_run(self) -> None:
        """Push every pending handle of the open delivery run."""
        run = self._run
        for segment in run:
            segment.materialize()
        run.clear()

    # -- coalescing timers -------------------------------------------------

    def _arm_timer(self, model: str) -> None:
        """Schedule the max-wait flush for the oldest queued handle.

        Handles only leave the queue at flushes, so an armed timer is never
        *later* than needed; stale (too-early) firings re-arm themselves.
        """
        flush_at = self._coalescers[model].next_flush_at()
        if flush_at is None:
            return
        pending = self._timer_at.get(model)
        if pending is not None and pending <= flush_at:
            return
        self._timer_at[model] = flush_at
        self.loop.schedule(
            max(flush_at, self.loop.now),
            partial(self._on_timer, model, flush_at),
            label="flush",
        )

    def _on_timer(self, model: str, armed_at: float, _loop=None) -> None:
        if self.crashed:
            return  # timers armed before the crash are dead letters
        if self._timer_at.get(model) != armed_at:
            return  # superseded by a flush that consumed the batch
        self._timer_at[model] = None
        trigger = self._coalescers[model].ready(self.loop.now)
        if trigger is not None:
            self._flush(model, trigger)
        else:
            self._arm_timer(model)

    def _flush(self, model: str, trigger: str) -> None:
        now = self.loop.now
        if self._run:
            self._materialize_run()
        if self._est_memo:
            # Dispatching moves command queues, so estimates memoized for
            # the current arrival run are stale from here on.
            self._est_memo.clear()
        coalescer = self._coalescers[model]
        spec = self.specs[model]
        sinks = self._sinks[model]
        while True:
            batch = coalescer.take(now, trigger)
            placement = self.backlog.decide(spec, batch.total_samples, arrival_s=now)
            self._workers[placement.device_name].execute(batch, placement)
            self._in_flight += len(batch)
            self._in_flight_samples += batch.total_samples
            for sink in sinks:
                sink.batch_sizes.add(batch.total_samples)
            # Leftovers can themselves already fill a batch (e.g. a flood
            # arriving between timer firings); drain every full batch now.
            if coalescer.ready(now) != "full":
                break
            trigger = "full"
        self._timer_at[model] = None
        self._arm_timer(model)

    # -- degrade path ------------------------------------------------------

    def _run_degraded(self, response: ServingResponse) -> None:
        """Execute immediately on the cheapest device (no queue, no merge)."""
        now = self.loop.now
        if self._run:
            self._materialize_run()
        if self._est_memo:
            self._est_memo.clear()
        device = self._cheapest
        response.degraded = True
        batch = CoalescedBatch(
            model=response.request.model,
            entries=(response,),
            formed_s=now,
            trigger="degrade",
        )
        placement = BacklogDecision(
            device=device.device_class.value,
            device_name=device.name,
            gpu_state=self.backlog.scheduler.probe_gpu_state(now=now),
            wait_s=self._workers[device.name].backlog_s(now),
            ranked=(device.device_class.value,),
            spilled=False,
        )
        self._workers[device.name].execute(batch, placement)
        self._in_flight += 1
        self._in_flight_samples += response.request.batch

    # -- completion --------------------------------------------------------

    def _on_complete(
        self, batch: CoalescedBatch, placement: BacklogDecision, event: Event
    ) -> None:
        """Resolve a landed batch's handles in order (or fail one on a
        transient-fault draw), then record the served ones once."""
        end = event.time_ended
        scores = event.meta.get("scores")
        total = batch.total_samples
        launch = LaunchRecord(
            placement.device, placement.device_name, placement.gpu_state,
            batch.trigger, self._n_batches, total, batch.formed_s,
            event.time_started, end, event.energy.total_j,
        )
        self._n_batches += 1
        pending, profile = self._pending, self.fault_profile
        latencies, lates = [], []
        offset = 0
        for response in batch.entries:
            del pending[response.seq]
            request = response.request
            samples = request.batch
            if profile is not None and profile.draw_failure(end):
                offset += samples
                self._fail_request(response, "inference_error")
                continue
            response.launch = launch
            if scores is not None:
                response.scores = scores[offset : offset + samples]
            offset += samples
            latencies.append(end - request.effective_arrival_s)
            lates.append(response.resolve("ok"))

        self._in_flight -= len(batch.entries)
        self._in_flight_samples -= total
        if latencies:
            for sink in self._sinks[batch.model]:
                sink.record_served(latencies, lates)

        self.backlog.record_service(
            batch.model, total, placement.gpu_state, placement.device,
            event.duration_s, now=end,
        )

    def _fail_request(self, response: ServingResponse, reason: str) -> None:
        """One request's launch failed transiently.

        A resilient cluster router that installed
        :attr:`on_request_failed` takes ownership (retry with backoff, or
        shed); otherwise the frontend sheds it locally — resolved either
        way, never lost.
        """
        for sink in self._sinks[response.request.model]:
            sink.n_failed += 1
        if self.on_request_failed is not None:
            self.on_request_failed(response, reason)
            return
        self._shed(response, reason)

    def _shed(self, response: ServingResponse, reason: str) -> None:
        """Count one shed in every sink of its model, then resolve."""
        for sink in self._sinks[response.request.model]:
            sink.n_shed += 1
        response.resolve("shed", reason)

    # -- fault handling (crash / dropout / throttle) -----------------------

    def crash(self) -> None:
        """Fail-stop this frontend, silently (nobody is notified here).

        Queued and aborted in-flight handles move to the lost limbo and
        stay pending.  Recovery of the *work* is the cluster layer's job:
        a health check notices the crash, collects the limbo via
        :meth:`collect_lost` and re-adopts each handle on a surviving node
        exactly once.
        """
        if self.crashed:
            raise SchedulerError("frontend is already crashed")
        self.crashed = True
        lost = self.drain_queued()
        for name in self._workers:
            lost.extend(self.abort_device(name))
        for response in lost:
            # Limboed handles are still this frontend's to answer for.
            self._lost[response.seq] = self._pending[response.seq] = response

    def restart(self) -> None:
        """Bring a crashed frontend back up (empty queues, cold timers).

        Un-collected limbo handles stay collectable — a crash shorter than
        the heartbeat interval still loses no work.
        """
        if not self.crashed:
            raise SchedulerError("frontend is not crashed")
        self.crashed = False

    def collect_lost(self) -> "list[ServingResponse]":
        """Take every limboed handle (submission order) for re-adoption.

        Physically removes the handles, so each can be collected exactly
        once no matter how many sweeps race over the same crash.
        """
        lost = sorted(self._lost.values(), key=lambda r: r.seq)
        for response in lost:
            del self._pending[response.seq]
        self._lost.clear()
        return lost

    def drop_device(self, device_class: str) -> int:
        """Take one device class out of service (e.g. the dGPU vanished).

        Masks the class out of the backlog scheduler's ranking (stale
        decision-cache cells are invalidated), re-targets the degrade
        path, aborts the device's in-flight launches and re-admits their
        requests on the remaining devices.  Returns how many requests were
        re-admitted.  Raises if the drop would leave no device.
        """
        if device_class in self._dropped:
            raise SchedulerError(f"device class {device_class!r} is already dropped")
        present = {
            d.device_class.value
            for d in self.backlog.scheduler.context.devices
        }
        if device_class not in present:
            raise SchedulerError(
                f"no {device_class!r} device on this node (has: {sorted(present)})"
            )
        mask = frozenset(present - self._dropped - {device_class})
        if not mask:
            raise SchedulerError(
                f"dropping {device_class!r} would leave no device to place on"
            )
        self.backlog.set_device_mask(mask)
        self._dropped.add(device_class)
        self._recompute_degrade_target()
        readmitted = 0
        for name, worker in list(self._workers.items()):
            if worker.device_class != device_class:
                continue
            for response in self.abort_device(name):
                self.readmit(response)
                readmitted += 1
        return readmitted

    def restore_device(self, device_class: str) -> None:
        """Fold a previously dropped device class back into service."""
        if device_class not in self._dropped:
            raise SchedulerError(f"device class {device_class!r} is not dropped")
        self._dropped.discard(device_class)
        if self._dropped:
            present = {
                d.device_class.value
                for d in self.backlog.scheduler.context.devices
            }
            self.backlog.set_device_mask(frozenset(present - self._dropped))
        else:
            self.backlog.set_device_mask(None)
        self._recompute_degrade_target()

    def set_throttle(self, device_class: str, multiplier: float) -> None:
        """Thermal slowdown: stretch every launch on a device class.

        ``multiplier`` scales launch latency (1.0 restores nominal speed);
        the stretched time also holds the device's command-queue clock, so
        the backlog the scheduler reads reflects the slowdown.
        """
        if multiplier < 1.0:
            raise ValueError(f"throttle multiplier must be >= 1.0, got {multiplier}")
        hit = False
        for worker in self._workers.values():
            if worker.device_class == device_class:
                worker.throttle = float(multiplier)
                hit = True
        if not hit:
            raise SchedulerError(f"no {device_class!r} device on this node")

    def cancel_queued(self, request_id: int) -> "ServingResponse | None":
        """Pull a still-cancellable request back out (timeout rescue).

        Finds the handle in a serving queue or the crash limbo and removes
        it physically; returns None when the request is in flight (it will
        complete normally — cancelling would risk double execution) or not
        here at all.  The caller owns a returned handle exclusively.
        """
        for queue in self._queues.values():
            response = queue.remove(request_id)
            if response is not None:
                del self._pending[response.seq]
                return response
        for seq, response in self._lost.items():
            if response.request.request_id == request_id:
                del self._lost[seq]
                del self._pending[seq]
                return response
        return None

    def _recompute_degrade_target(self) -> None:
        candidates = [
            d for d in self.backlog.scheduler.context.devices
            if d.device_class.value not in self._dropped
        ]
        self._cheapest = min(candidates, key=lambda d: d.spec.busy_watts)

    # -- device topology (partition split/merge) ---------------------------

    def attach_device(self, device, ready_at: "float | None" = None) -> DeviceWorker:
        """Admit a new logical device (e.g. a freshly split partition).

        Registers it with the scheduler (context + command queue), loads
        every deployed model onto it, optionally holds its queue clock at
        ``ready_at`` (the reconfiguration cost — work placed on the new
        partition cannot start before the split completes), spins up its
        worker and invalidates cached placement decisions.
        """
        scheduler = self.backlog.scheduler
        queue = scheduler.register_device(device)
        scheduler.dispatcher.attach_device(device)
        if ready_at is not None and queue.current_time < ready_at:
            queue.advance_to(ready_at)
        worker = self._make_worker(device)
        self._workers[device.name] = worker
        self.backlog.notify_repartition()
        self._recompute_degrade_target()
        return worker

    def detach_device(self, device_name: str) -> None:
        """Retire a logical device by exact name.

        Refuses while launches are in flight — call :meth:`abort_device`
        first and :meth:`readmit` the collected handles after the topology
        settles.  Raises if the device is unknown or the last one.
        """
        worker = self.worker_for(device_name)
        if worker.in_flight:
            raise SchedulerError(
                f"device {device_name!r} has {worker.in_flight} launch(es) "
                f"in flight; abort_device() first"
            )
        scheduler = self.backlog.scheduler
        scheduler.unregister_device(device_name)
        scheduler.dispatcher.detach_device(device_name)
        del self._workers[device_name]
        self.backlog.notify_repartition()
        self._recompute_degrade_target()

    def abort_device(self, device_name: str) -> "list[ServingResponse]":
        """Abort one device's in-flight launches; collect their handles.

        Every aborted handle leaves the in-flight ledger and this
        frontend's pending ledger, ready for :meth:`readmit`.
        """
        worker = self.worker_for(device_name)
        collected: "list[ServingResponse]" = []
        for batch in worker.abort_in_flight():
            for response in batch.entries:
                self._in_flight -= 1
                self._in_flight_samples -= response.request.batch
                del self._pending[response.seq]
                collected.append(response)
        return collected

    def worker_for(self, device_name: str) -> DeviceWorker:
        """The worker serving one device (by exact spec name)."""
        try:
            return self._workers[device_name]
        except KeyError:
            known = ", ".join(sorted(self._workers)) or "<none>"
            raise SchedulerError(
                f"no worker for device {device_name!r} (has: {known})"
            ) from None

    # -- cluster hooks (drain / transfer) ----------------------------------

    def drain_queued(self) -> "list[ServingResponse]":
        """Pop every queued request for re-routing elsewhere (drain hook).

        In-flight batches are untouched and complete normally — that is the
        graceful half of a node drain.  Returned handles are forgotten by
        this frontend and stay pending; the caller hands each one to
        another frontend's :meth:`readmit`.
        """
        drained: "list[ServingResponse]" = []
        for model, queue in self._queues.items():
            while len(queue):
                response = queue.pop()
                del self._pending[response.seq]
                drained.append(response)
            self._timer_at[model] = None   # armed timers become stale no-ops
        drained.sort(key=lambda r: r.seq)  # original submission order
        return drained

    def readmit(self, response: ServingResponse) -> ServingResponse:
        """Re-run arrival here for a handle taken off a queue or device.

        The one re-entry path: the router hands over drained, retried and
        crash-orphaned handles, and the partition manager and
        :meth:`drop_device` aborted in-flight ones.  The request object —
        arrival time, absolute deadline — is preserved, so end-to-end
        latency keeps counting from its first arrival; the handle takes
        this frontend's next ``seq``, its enqueue time resets to now for
        coalescing, and a degrade elsewhere no longer applies.  Admission
        re-runs, so a full queue here can still shed it (resolved, never
        lost).  Returns the handle.
        """
        self._require_spec(response.request.model)
        response.degraded = False
        self._register_arrival(response, self.loop.now)
        self._on_arrival(response)
        return response

    # -- introspection -----------------------------------------------------

    @property
    def n_pending(self) -> int:
        """Handles this frontend still answers for: registered here and
        not yet resolved or handed on — arriving, queued, in flight, or
        in the crash limbo — plus those submitted to its :attr:`ingress`
        that have not arrived yet."""
        n = len(self._pending)
        if self._ingress is not None:
            n += sum(
                not r.n_routes and not r.done for r in self._ingress._responses
            )
        return n

    @property
    def queued(self) -> int:
        """Requests sitting in the serving queues, not yet dispatched."""
        return sum(len(q) for q in self._queues.values())

    @property
    def outstanding(self) -> int:
        """Requests accepted and unresolved: queued plus in flight."""
        return self._in_flight + self.queued

    @property
    def outstanding_samples(self) -> int:
        """Samples accepted and unresolved: queued plus in flight.

        Like :attr:`queued` and :attr:`outstanding`, a sum of running
        counters (one per model queue plus the in-flight ledger), cheap
        enough for a balancer to read per node per routing decision.
        """
        return self._in_flight_samples + sum(
            q.total_samples for q in self._queues.values()
        )

    def queue_depth(self, model: str) -> int:
        return len(self._queues[self._require_spec(model).name])

    def stats(self) -> dict:
        """Telemetry snapshot plus per-layer counters."""
        return {
            **self.telemetry.snapshot(),
            "pending": self.n_pending,
            "virtual_time_s": self.loop.now,
            "spills": self.backlog.n_spills,
            "decision_cache": self.backlog.cache_stats(),
            "queues": {m: len(q) for m, q in sorted(self._queues.items())},
            "admission": {
                m: c.stats() for m, c in sorted(self._admission.items())
            },
            "workers": {
                name: w.stats() for name, w in sorted(self._workers.items())
            },
        }
