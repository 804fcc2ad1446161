"""The SLO-aware serving frontend: queues → coalescer → placement → workers.

This is the serving loop the rest of :mod:`repro.serving` plugs into: a
one-class façade (``submit(model, x, deadline_s, policy)`` returns real
scores, where the request ran and what it cost) running over the
discrete-event engine so thousands of queued, coalesced, deadline-carrying
requests replay deterministically:

1. ``submit`` schedules an arrival on the :class:`~repro.sim.engine.EventLoop`;
2. at arrival, the :class:`~repro.serving.admission.AdmissionController`
   accepts / sheds / degrades against the per-model SLO config, using the
   backlog scheduler's learned completion estimates;
3. accepted requests sit in a per-model FIFO/EDF queue until the
   :class:`~repro.serving.coalescer.BatchCoalescer` fires (full batch, or
   the oldest request has waited ``max_wait_s``);
4. the coalesced batch is placed by the paper's scheduler
   (:class:`~repro.sched.backlog.BacklogAwareScheduler`, which wraps the
   Fig. 5 predictor) and executed by that device's
   :class:`~repro.serving.workers.DeviceWorker`;
5. completion resolves every merged request's future-like
   :class:`ServingResponse` and feeds the realized service time back into
   the scheduler's outcome table.

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

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.errors import SchedulerError
from repro.nn.builders import ModelSpec
from repro.ocl.event import Event
from repro.sched.backlog import BacklogAwareScheduler, BacklogDecision
from repro.sched.policies import Policy
from repro.sched.scheduler import OnlineScheduler
from repro.serving.admission import AdmissionController
from repro.serving.coalescer import BatchCoalescer, CoalescedBatch
from repro.serving.queues import QueueEntry, make_queue
from repro.serving.workers import DeviceWorker
from repro.sim.engine import EventLoop, TraceCursor, check_arrival_order
from repro.telemetry.serving import ServingTelemetry
from repro.workloads.requests import InferenceRequest, RequestTrace

__all__ = [
    "SLOConfig",
    "IMMEDIATE_DISPATCH",
    "NodeStats",
    "ServingResponse",
    "ServingResult",
    "ServingFrontend",
]

#: Completions landing within this of the deadline still meet it (float slop).
_DEADLINE_EPS = 1e-9


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
        if self.deadline_s is not None and self.deadline_s <= 0.0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_s < 0.0:
            raise ValueError(f"max_wait_s must be >= 0, got {self.max_wait_s}")
        if self.discipline not in ("fifo", "edf"):
            raise ValueError(f"unknown discipline {self.discipline!r}")
        if self.ect_margin <= 0.0:
            raise ValueError(f"ect_margin must be positive, got {self.ect_margin}")


#: One request per launch, dispatched at arrival, never refused: no
#: coalescing wait, no queue bound, no deadline.
IMMEDIATE_DISPATCH = SLOConfig(
    deadline_s=None, max_queue_depth=None, max_batch=1, max_wait_s=0.0
)


@dataclass(frozen=True, slots=True)
class NodeStats:
    """A cheap load snapshot of one frontend, for cluster-level polling.

    Every field is O(#models) to produce — counters, queue lengths and a
    bounded rolling-window tail, never a full-history percentile — so a
    router may take one per node per routing decision.

    * ``queued`` / ``queued_samples`` — requests (samples) sitting in the
      per-model serving queues, not yet dispatched.
    * ``in_flight`` / ``in_flight_samples`` — dispatched to a device worker
      but not yet completed (the device command-queue backlog).
    * ``outstanding`` / ``outstanding_samples`` — the sum of both: work this
      node has accepted and not yet resolved.
    * ``recent_p99_s`` — p99 over the telemetry's rolling latency window
      (None before any request completes).
    * ``backlog_s`` — the largest per-device backlog (seconds of committed
      work ahead of virtual now).
    """

    queued: int
    queued_samples: int
    in_flight: int
    in_flight_samples: int
    served: int
    shed: int
    recent_p99_s: "float | None"
    backlog_s: float
    virtual_time_s: float
    queue_depths: "dict[str, int]"

    @property
    def outstanding(self) -> int:
        return self.queued + self.in_flight

    @property
    def outstanding_samples(self) -> int:
        return self.queued_samples + self.in_flight_samples


class ServingResponse:
    """Future-like handle for one submitted request.

    Starts 'pending'; resolves to 'ok' when its batch completes or 'shed'
    when admission refuses it.  Degraded requests resolve 'ok' with
    :attr:`degraded` set.

    ``on_done`` is an optional resolution hook: set it before the loop
    runs past the request and it fires exactly once, with this response,
    at the instant the status leaves 'pending' (served or shed).  Cascade
    executors chain stages through it; it is never called for responses
    a drain orphaned (those stay pending forever — the adopting node's
    fresh response resolves instead).
    """

    __slots__ = (
        "request", "status", "device", "device_name", "gpu_state", "trigger",
        "batch_id", "batch_size", "dispatched_s", "start_s", "end_s",
        "energy_j", "scores", "degraded", "shed_reason", "on_done",
    )

    def __init__(self, request: InferenceRequest):
        self.request = request
        self.status = "pending"
        self.device: "str | None" = None          # device-class value
        self.device_name: "str | None" = None
        self.gpu_state: "str | None" = None       # dGPU state probed at placement
        self.trigger: "str | None" = None         # what dispatched its batch
        self.batch_id: "int | None" = None        # which coalesced batch served it
        self.batch_size: "int | None" = None      # coalesced launch size
        self.dispatched_s: "float | None" = None  # when its batch was formed
        self.start_s: "float | None" = None
        self.end_s: "float | None" = None
        self.energy_j: "float | None" = None      # batch energy x sample share
        self.scores: "np.ndarray | None" = None
        self.degraded = False
        self.shed_reason: "str | None" = None
        self.on_done: "Callable[[ServingResponse], None] | None" = None

    def _fire_done(self) -> None:
        """Invoke the resolution hook once (it is consumed on firing)."""
        hook = self.on_done
        if hook is not None:
            self.on_done = None
            hook(self)

    @property
    def done(self) -> bool:
        return self.status != "pending"

    @property
    def served(self) -> bool:
        return self.status == "ok"

    def outcome_tuple(self) -> tuple:
        """The resolved outcome serialized for digesting and IPC.

        ``(request_id, status, device, end_s, shed_reason)`` — the
        node-local analogue of
        :meth:`~repro.cluster.router.ClusterResponse.outcome_tuple`; the
        cluster version prepends the node name.
        """
        return (
            self.request.request_id,
            self.status,
            self.device,
            self.end_s,
            self.shed_reason,
        )

    @property
    def latency_s(self) -> float:
        """Arrival-to-completion time (served requests only).

        Counts from the request's *effective* arrival — the chain's first
        arrival for escalated follow-up requests — so end-to-end latency
        honestly includes the time earlier stages already spent.
        """
        if not self.served:
            raise SchedulerError(f"request is {self.status}, has no latency")
        return self.end_s - self.request.effective_arrival_s

    @property
    def deadline_met(self) -> "bool | None":
        """Whether the SLO held (None if best-effort or not served)."""
        if not self.served or self.request.deadline_s is None:
            return None
        return self.end_s <= self.request.deadline_s + _DEADLINE_EPS

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServingResponse(id={self.request.request_id}, status={self.status!r}, "
            f"device={self.device!r})"
        )


@dataclass
class ServingResult:
    """Aggregate outcome of serving a trace through the frontend."""

    responses: list[ServingResponse] = field(default_factory=list)
    telemetry: ServingTelemetry = field(default_factory=ServingTelemetry)

    def __len__(self) -> int:
        return len(self.responses)

    @property
    def served(self) -> list[ServingResponse]:
        return [r for r in self.responses if r.served]

    @property
    def shed(self) -> list[ServingResponse]:
        return [r for r in self.responses if r.status == "shed"]

    @property
    def shed_rate(self) -> float:
        return len(self.shed) / len(self.responses) if self.responses else 0.0

    @property
    def n_violations(self) -> int:
        """Served requests that finished after their deadline."""
        return sum(1 for r in self.served if r.deadline_met is False)

    def latency_percentile(self, q: float) -> float:
        """q-th percentile latency over served requests, in seconds."""
        if not self.served:
            raise SchedulerError("no served requests in result")
        return float(np.percentile([r.latency_s for r in self.served], q))

    @property
    def total_energy_j(self) -> float:
        return float(sum(r.energy_j for r in self.served))

    def device_shares(self) -> dict[str, float]:
        """Fraction of served requests per device class."""
        served = self.served
        if not served:
            return {}
        counts: dict[str, int] = {}
        for r in served:
            counts[r.device] = counts.get(r.device, 0) + 1
        return {d: c / len(served) for d, c in sorted(counts.items())}


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
    decision_cache:
        Serve placement decisions through the backlog scheduler's decision
        cache (bit-identical results; disable for the uncached reference
        path in equivalence tests).
    tenants:
        Optional :class:`~repro.partition.tenants.TenantSet` attributing
        requests to tenants by model ownership.  With one installed the
        telemetry keeps a per-tenant isolation ledger (served / shed /
        violations / tails); without one, nothing tenant-shaped is
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
        decision_cache: bool = True,
        tenants: "TenantSet | None" = None,
    ):
        if not specs:
            raise SchedulerError("serving frontend needs at least one model spec")
        self.specs = dict(specs)
        self.loop = loop if loop is not None else EventLoop()
        self.backlog = BacklogAwareScheduler(
            scheduler, policy=policy, max_rank=max_rank, cache_decisions=decision_cache
        )
        self.telemetry = ServingTelemetry()
        # Online-predictor telemetry: the callable answers None with a
        # plain predictor, so frozen-predictor snapshots are unchanged.
        self.telemetry.online = self.backlog.online_stats

        self.tenants = tenants
        if tenants is not None:
            unknown = set(tenants.model_names) - set(self.specs)
            if unknown:
                raise SchedulerError(
                    f"tenant models not deployed: {sorted(unknown)}"
                )
            for tenant in tenants:
                self.telemetry.tenant(tenant.name)  # ledger exists from t=0

        self._slo = dict(slo or {})
        unknown = set(self._slo) - set(self.specs)
        if unknown:
            raise SchedulerError(f"SLO configs for undeployed models: {sorted(unknown)}")
        self._default_slo = default_slo if default_slo is not None else SLOConfig()

        self._queues = {}
        self._coalescers = {}
        self._admission = {}
        for name in self.specs:
            cfg = self.slo_for(name)
            queue = make_queue(cfg.discipline, name, cfg.max_queue_depth)
            self._queues[name] = queue
            self._coalescers[name] = BatchCoalescer(queue, cfg.max_batch, cfg.max_wait_s)
            self._admission[name] = AdmissionController(
                degrade=cfg.degrade, ect_margin=cfg.ect_margin
            )

        context = scheduler.context
        self._workers = {d.name: self._make_worker(d) for d in context.devices}
        # Degrade target: the lowest-power device (cheapest to burn).
        self._cheapest = min(context.devices, key=lambda d: d.spec.busy_watts)

        self._seq = 0
        self._n_batches = 0
        self._pending: dict[int, ServingResponse] = {}
        self._timer_at: dict[str, "float | None"] = {name: None for name in self.specs}
        self._in_flight = 0          # requests dispatched, not yet completed
        self._in_flight_samples = 0
        # Completion-estimate memo for a batched run of simultaneous
        # arrivals.  Non-None only between begin_arrival_batch() and
        # end_arrival_batch(), while a trace-cursor run is delivering
        # same-timestamp entries: between dispatches nothing that
        # estimate_completion reads can change at a fixed instant, so one
        # (model, batch) probe serves the whole run.  Every dispatch path
        # clears it (the dispatch moves command queues), which is what
        # keeps admission decisions bit-identical to one submit_request
        # per arrival.
        self._est_memo: "dict[tuple[str, int], float] | None" = None

        # -- resilience state (inert unless faults are injected) -----------
        # crashed: fail-stop flag; while set, arrivals fall into the lost
        # limbo instead of the queues (the process is gone — nobody answers)
        # until a health check collects them for re-adoption elsewhere.
        self.crashed = False
        self._lost: "dict[int, QueueEntry]" = {}
        self._dropped: "set[str]" = set()   # device classes out of service
        # Transient-error model (repro.faults.profile.ErrorProfile); draws
        # happen only inside its active windows, so a None/idle profile
        # leaves results digit-identical.
        self.fault_profile = None
        # Cluster hook: called with (entry, response, reason) when a
        # request's launch fails; return True to take ownership (retry /
        # shed at the router), False to let this frontend shed it locally.
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

    def submit(
        self,
        model: str,
        x: "np.ndarray | int",
        deadline_s: "float | None" = None,
        policy: "Policy | str | None" = None,
        arrival_s: "float | None" = None,
    ) -> ServingResponse:
        """Submit one request; returns immediately with a pending response.

        ``x`` is either a host batch (real scores come back) or a bare
        batch size (timing/energy only).  ``deadline_s`` is the *relative*
        SLO from arrival; omitted, the model's configured default applies.
        ``policy`` must be the frontend's placement policy (one frontend
        places under one predictor); omitted, it is stamped on the request.
        The work itself happens when the event loop runs past the arrival.
        """
        spec = self._require_spec(model)
        placement_policy = self.backlog.policy
        if policy is not None and Policy.parse(policy) is not placement_policy:
            raise SchedulerError(
                f"policy {str(policy)!r} does not match this frontend's "
                f"placement policy {placement_policy.value!r}"
            )
        if isinstance(x, np.ndarray):
            batch, data = int(x.shape[0]), x
        else:
            batch, data = int(x), None
        arrival = self.loop.now if arrival_s is None else float(arrival_s)
        cfg = self.slo_for(model)
        relative = deadline_s if deadline_s is not None else cfg.deadline_s
        request = InferenceRequest(
            request_id=self._seq,
            arrival_s=arrival,
            model=spec.name,
            batch=batch,
            policy=placement_policy.value,
            deadline_s=None if relative is None else arrival + relative,
        )
        return self._schedule_arrival(request, data)

    def submit_request(
        self, request: InferenceRequest, x: "np.ndarray | None" = None
    ) -> ServingResponse:
        """Submit a pre-built trace request (its own deadline wins).

        Requests without a deadline inherit the model's configured default
        SLO, so plain traces can still drive deadline-aware serving.
        """
        self._require_spec(request.model)
        return self._schedule_arrival(self._with_default_deadline(request), x)

    def register_request(
        self, request: InferenceRequest, x: "np.ndarray | None" = None
    ) -> "tuple[ServingResponse, QueueEntry]":
        """Register a request without scheduling its arrival event.

        The cluster router's trace cursor batches deliveries itself
        (one event per run of simultaneous arrivals); it registers here
        during routing and later feeds each entry to the arrival handler
        directly.  Ledger state after registration is identical to
        :meth:`submit_request` minus the per-request heap entry.
        """
        self._require_spec(request.model)
        return self._register_arrival(self._with_default_deadline(request), x)

    def deliver(self, entry: QueueEntry) -> None:
        """Process a registered entry's arrival at the current instant.

        Counterpart to :meth:`register_request` for batched delivery:
        identical to the event the per-request path would have fired.
        """
        self._on_arrival(entry)

    def begin_arrival_batch(self) -> bool:
        """Arm the completion-estimate memo for a batched delivery run.

        Returns True when this call armed it (the caller must then call
        :meth:`end_arrival_batch`), False when a run is already active.
        """
        if self._est_memo is None:
            self._est_memo = {}
            return True
        return False

    def end_arrival_batch(self) -> None:
        """Disarm the completion-estimate memo after a batched run."""
        self._est_memo = None

    def serve_trace(self, trace: RequestTrace) -> ServingResult:
        """Replay a whole trace through the frontend and drain the loop.

        Arrivals are checked for order and registered first, then a
        :class:`~repro.sim.engine.TraceCursor` fires one event per run
        of equal timestamps and admits the run synchronously with a
        shared completion-estimate memo: the heap holds only live
        timers/completions, never the trace, and simultaneous arrivals
        cost one backlog probe per (model, batch) cell.  Outcomes are
        digit-identical to one :meth:`submit_request` per arrival
        followed by :meth:`run`, the reference the equivalence tests
        hold this path to.
        """
        requests = list(trace)
        times = [request.arrival_s for request in requests]
        check_arrival_order(times, self.loop.now)
        responses = []
        entries = []
        for request in requests:
            self._require_spec(request.model)
            response, entry = self._register_arrival(
                self._with_default_deadline(request), None
            )
            responses.append(response)
            entries.append(entry)
        TraceCursor(
            self.loop, times, partial(self._arrive_run, entries), label="arrive"
        ).start()
        self.run()
        return ServingResult(responses=responses, telemetry=self.telemetry)

    def _arrive_run(self, entries: "list[QueueEntry]", i: int, j: int) -> None:
        """Deliver one run of same-timestamp arrivals synchronously."""
        if j - i == 1:
            self._on_arrival(entries[i])
            return
        armed = self.begin_arrival_batch()
        try:
            for k in range(i, j):
                self._on_arrival(entries[k])
        finally:
            if armed:
                self.end_arrival_batch()

    def _with_default_deadline(self, request: InferenceRequest) -> InferenceRequest:
        """Stamp the model's configured default SLO on deadline-less requests."""
        cfg = self.slo_for(request.model)
        if request.deadline_s is not None or cfg.deadline_s is None:
            return request
        return InferenceRequest(
            request_id=request.request_id,
            arrival_s=request.arrival_s,
            model=request.model,
            batch=request.batch,
            policy=request.policy,
            deadline_s=request.arrival_s + cfg.deadline_s,
        )

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
        self, request: InferenceRequest, data: "np.ndarray | None"
    ) -> "tuple[ServingResponse, QueueEntry]":
        # Guard every submission path (submit, submit_request, serve_trace)
        # before any state mutates, so a stale trace fails cleanly instead
        # of dying half-submitted inside the event loop.
        if request.arrival_s < self.loop.now:
            raise SchedulerError(
                f"cannot submit into the past: arrival {request.arrival_s} "
                f"< now={self.loop.now}"
            )
        response = ServingResponse(request)
        entry = QueueEntry(
            request=request, enqueued_s=request.arrival_s, seq=self._seq, x=data
        )
        self._seq += 1
        self._pending[entry.seq] = response
        return response, entry

    def _schedule_arrival(
        self, request: InferenceRequest, data: "np.ndarray | None"
    ) -> ServingResponse:
        response, entry = self._register_arrival(request, data)
        self.loop.schedule(
            request.arrival_s, partial(self._on_arrival, entry), label="arrive"
        )
        return response

    def _on_arrival(self, entry: QueueEntry, _loop=None) -> None:
        if self.crashed:
            # The process is gone: nothing answers, nothing is refused.
            # The entry waits in limbo until a health check collects it
            # (or a timeout rescues it) — exactly one of the two, since
            # both remove it physically.
            self._lost[entry.seq] = entry
            return
        now = self.loop.now
        model = entry.request.model
        spec = self.specs[model]
        queue = self._queues[model]
        response = self._pending[entry.seq]

        memo = self._est_memo
        if memo is None:
            _, est_delay = self.backlog.estimate_completion(spec, entry.batch, now)
        else:
            key = (model, entry.batch)
            est_delay = memo.get(key)
            if est_delay is None:
                _, est_delay = self.backlog.estimate_completion(spec, entry.batch, now)
                memo[key] = est_delay
        decision = self._admission[model].admit(
            entry.request, queue, now, est_delay_s=est_delay
        )

        if decision.action == "shed":
            del self._pending[entry.seq]
            response.status = "shed"
            response.shed_reason = decision.reason
            self.telemetry.n_shed += 1
            self._record_tenant_shed(model)
            response._fire_done()
            return
        if decision.action == "degrade":
            self.telemetry.n_degraded += 1
            self._run_degraded(entry)
            return

        queue.push(entry)
        self.telemetry.record_depth(model, now, len(queue))
        coalescer = self._coalescers[model]
        if coalescer.ready(now) == "full":
            self._flush(model, "full")
        else:
            self._arm_timer(model)

    # -- coalescing timers -------------------------------------------------

    def _arm_timer(self, model: str) -> None:
        """Schedule the max-wait flush for the oldest queued entry.

        Entries only leave the queue at flushes, so an armed timer is never
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
        if self._est_memo:
            # Dispatching moves command queues, so estimates memoized for
            # the current arrival run are stale from here on.
            self._est_memo.clear()
        coalescer = self._coalescers[model]
        queue = self._queues[model]
        spec = self.specs[model]
        while True:
            batch = coalescer.take(now, trigger)
            placement = self.backlog.decide(spec, batch.total_samples, arrival_s=now)
            self._workers[placement.device_name].execute(batch, placement)
            self._in_flight += len(batch)
            self._in_flight_samples += batch.total_samples
            self.telemetry.batch_sizes.add(batch.total_samples)
            # Leftovers can themselves already fill a batch (e.g. a flood
            # arriving between timer firings); drain every full batch now.
            if coalescer.ready(now) != "full":
                break
            trigger = "full"
        self.telemetry.record_depth(model, now, len(queue))
        self._timer_at[model] = None
        self._arm_timer(model)

    # -- degrade path ------------------------------------------------------

    def _run_degraded(self, entry: QueueEntry) -> None:
        """Execute immediately on the cheapest device (no queue, no merge)."""
        now = self.loop.now
        if self._est_memo:
            self._est_memo.clear()
        device = self._cheapest
        degraded = QueueEntry(
            request=entry.request,
            enqueued_s=entry.enqueued_s,
            seq=entry.seq,
            x=entry.x,
            degraded=True,
        )
        batch = CoalescedBatch(
            model=entry.request.model,
            entries=(degraded,),
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
        self._in_flight_samples += entry.batch

    # -- completion --------------------------------------------------------

    def _on_complete(
        self, batch: CoalescedBatch, placement: BacklogDecision, event: Event
    ) -> None:
        end = event.time_ended
        scores = event.meta.get("scores")
        total = batch.total_samples
        batch_id = self._n_batches
        self._n_batches += 1
        profile = self.fault_profile
        offset = 0
        for entry in batch.entries:
            response = self._pending.pop(entry.seq)
            if profile is not None and profile.draw_failure(end):
                offset += entry.batch
                self._fail_request(entry, response, "inference_error")
                continue
            response.status = "ok"
            response.device = placement.device
            response.device_name = placement.device_name
            response.gpu_state = placement.gpu_state
            response.trigger = batch.trigger
            response.batch_id = batch_id
            response.batch_size = total
            response.dispatched_s = batch.formed_s
            response.start_s = event.time_started
            response.end_s = end
            response.energy_j = event.energy.total_j * entry.batch / total
            response.degraded = entry.degraded
            if scores is not None:
                response.scores = scores[offset : offset + entry.batch]
            offset += entry.batch

            self.telemetry.n_served += 1
            latency = end - entry.request.effective_arrival_s
            self.telemetry.record_latency(latency)
            violated = response.deadline_met is False
            if violated:
                self.telemetry.n_violations += 1
            if self.tenants is not None:
                tenant = self.tenants.tenant_for(batch.model)
                if tenant is not None:
                    self.telemetry.tenant(tenant.name).record_served(
                        latency, violated
                    )
            response._fire_done()

        self._in_flight -= len(batch.entries)
        self._in_flight_samples -= total

        self.backlog.record_service(
            batch.model, total, placement.gpu_state, placement.device,
            event.duration_s, now=end,
        )

    def _fail_request(
        self, entry: QueueEntry, response: ServingResponse, reason: str
    ) -> None:
        """One request's launch failed transiently.

        A cluster router that installed :attr:`on_request_failed` takes
        ownership (retry with backoff, or shed); standalone frontends shed
        locally — resolved either way, never lost.
        """
        self.telemetry.n_failed += 1
        hook = self.on_request_failed
        if hook is not None and hook(entry, response, reason):
            return
        response.status = "shed"
        response.shed_reason = reason
        self.telemetry.n_shed += 1
        self._record_tenant_shed(entry.request.model)
        response._fire_done()

    def _record_tenant_shed(self, model: str) -> None:
        if self.tenants is None:
            return
        tenant = self.tenants.tenant_for(model)
        if tenant is not None:
            self.telemetry.tenant(tenant.name).record_shed()

    # -- fault handling (crash / dropout / throttle) -----------------------

    def crash(self) -> None:
        """Fail-stop this frontend, silently (nobody is notified here).

        Queued entries and aborted in-flight work move to the lost limbo;
        their responses stay pending.  Recovery of the *work* is the
        cluster layer's job: a health check notices the crash, collects
        the limbo via :meth:`collect_lost` and re-adopts each entry on a
        surviving node exactly once.
        """
        if self.crashed:
            raise SchedulerError("frontend is already crashed")
        self.crashed = True
        for entry in self.drain_queued():
            self._lost[entry.seq] = entry
        for worker in self._workers.values():
            for batch, _decision in worker.abort_in_flight():
                for entry in batch.entries:
                    self._pending.pop(entry.seq, None)
                    self._lost[entry.seq] = entry
        self._in_flight = 0
        self._in_flight_samples = 0
        for model in self._timer_at:
            self._timer_at[model] = None

    def restart(self) -> None:
        """Bring a crashed frontend back up (empty queues, cold timers).

        Un-collected limbo entries stay collectable — a crash shorter than
        the heartbeat interval still loses no work.
        """
        if not self.crashed:
            raise SchedulerError("frontend is not crashed")
        self.crashed = False

    def collect_lost(self) -> "list[QueueEntry]":
        """Take every limboed entry (submission order) for re-adoption.

        Physically removes the entries, so each can be collected exactly
        once no matter how many sweeps race over the same crash.
        """
        lost = sorted(self._lost.values(), key=lambda e: e.seq)
        for entry in lost:
            self._pending.pop(entry.seq, None)
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
            for entry, response in self.abort_device(name):
                self._readmit(entry, response)
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

    def cancel_queued(self, request_id: int) -> "QueueEntry | None":
        """Pull a still-cancellable request back out (timeout rescue).

        Finds the entry in a serving queue or the crash limbo and removes
        it physically; returns None when the request is in flight (it will
        complete normally — cancelling would risk double execution) or not
        here at all.  The caller owns a returned entry exclusively.
        """
        for model, queue in self._queues.items():
            entry = queue.remove(request_id)
            if entry is not None:
                self._pending.pop(entry.seq, None)
                self.telemetry.record_depth(model, self.loop.now, len(queue))
                return entry
        for seq, entry in self._lost.items():
            if entry.request.request_id == request_id:
                del self._lost[seq]
                self._pending.pop(seq, None)
                return entry
        return None

    def _recompute_degrade_target(self) -> None:
        candidates = [
            d for d in self.backlog.scheduler.context.devices
            if d.device_class.value not in self._dropped
        ]
        self._cheapest = min(candidates, key=lambda d: d.spec.busy_watts)

    def _readmit(self, entry: QueueEntry, response: ServingResponse) -> None:
        """Re-run arrival for a rescued entry, keeping its response.

        The original request (arrival time, absolute deadline) is
        preserved; admission re-runs, so a rescued request can still be
        shed — resolved on its original handle, never lost.
        """
        readmitted = QueueEntry(
            request=entry.request, enqueued_s=self.loop.now, seq=self._seq, x=entry.x
        )
        self._seq += 1
        self._pending[readmitted.seq] = response
        self._on_arrival(readmitted)

    def readmit(self, entry: QueueEntry, response: ServingResponse) -> None:
        """Re-admit an aborted request on its original response handle.

        The partition manager pairs this with :meth:`abort_device`: abort
        collects (entry, response) pairs off a retiring partition, the
        topology changes, then each pair re-runs arrival here — exactly
        once, on whatever devices now exist.
        """
        self._readmit(entry, response)

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
        first and :meth:`readmit` the collected pairs after the topology
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

    def abort_device(
        self, device_name: str
    ) -> "list[tuple[QueueEntry, ServingResponse]]":
        """Abort one device's in-flight launches; collect their requests.

        Every aborted entry leaves the in-flight ledger; entries whose
        response is still pending come back paired for :meth:`readmit`
        (entries already orphaned by a drain are simply dropped).
        """
        worker = self.worker_for(device_name)
        collected: "list[tuple[QueueEntry, ServingResponse]]" = []
        for batch, _decision in worker.abort_in_flight():
            for entry in batch.entries:
                self._in_flight -= 1
                self._in_flight_samples -= entry.batch
                response = self._pending.pop(entry.seq, None)
                if response is not None:
                    collected.append((entry, response))
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

    def drain_queued(self) -> "list[QueueEntry]":
        """Pop every queued request for re-routing elsewhere (drain hook).

        In-flight batches are untouched and complete normally — that is the
        graceful half of a node drain.  Returned entries are forgotten by
        this frontend (their original :class:`ServingResponse`s stay
        pending); the caller re-binds each request to another frontend via
        :meth:`adopt`, preserving exactly-once delivery one layer up.
        """
        now = self.loop.now
        drained: list[QueueEntry] = []
        for model, queue in self._queues.items():
            if not len(queue):
                continue
            while len(queue):
                entry = queue.pop()
                self._pending.pop(entry.seq, None)
                drained.append(entry)
            self._timer_at[model] = None   # armed timers become stale no-ops
            self.telemetry.record_depth(model, now, 0)
        drained.sort(key=lambda e: e.seq)  # original submission order
        return drained

    def adopt(self, entry: QueueEntry) -> ServingResponse:
        """Admit a request drained from another frontend (transfer hook).

        The original request object — arrival time, absolute deadline —
        is preserved, so end-to-end latency keeps counting from its first
        arrival; only the enqueue time resets to now for coalescing.  The
        transfer re-runs this node's admission, so a full queue here can
        still shed it (resolved, never lost).
        """
        request = entry.request
        self._require_spec(request.model)
        adopted = QueueEntry(
            request=request, enqueued_s=self.loop.now, seq=self._seq, x=entry.x
        )
        self._seq += 1
        response = ServingResponse(request)
        self._pending[adopted.seq] = response
        self._on_arrival(adopted)
        return response

    # -- introspection -----------------------------------------------------

    @property
    def n_pending(self) -> int:
        """Requests submitted but not yet resolved (queued or in flight)."""
        return len(self._pending)

    @property
    def queued_samples(self) -> int:
        """Samples sitting in the serving queues (O(#models) counters)."""
        return sum(q.total_samples for q in self._queues.values())

    @property
    def outstanding_samples(self) -> int:
        """Samples accepted and unresolved: queued plus in flight.

        The same quantity as ``node_stats().outstanding_samples`` without
        building the full snapshot — balancers tiebreak on this once per
        node per routing decision.
        """
        return self._in_flight_samples + self.queued_samples

    def queue_depth(self, model: str) -> int:
        return len(self._queues[self._require_spec(model).name])

    def node_stats(self) -> NodeStats:
        """Cheap load snapshot for cluster-level polling.

        Unlike :meth:`stats` (full telemetry, all-time percentiles), this
        reads only counters, queue lengths and the bounded rolling latency
        window — safe to call once per routing decision.
        """
        now = self.loop.now
        depths = {m: len(q) for m, q in self._queues.items()}
        return NodeStats(
            queued=sum(depths.values()),
            queued_samples=sum(q.total_samples for q in self._queues.values()),
            in_flight=self._in_flight,
            in_flight_samples=self._in_flight_samples,
            served=self.telemetry.n_served,
            shed=self.telemetry.n_shed,
            recent_p99_s=self.telemetry.recent.p99_s,
            backlog_s=max(
                (w.backlog_s(now) for w in self._workers.values()), default=0.0
            ),
            virtual_time_s=now,
            queue_depths=depths,
        )

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
