"""The cascade executor: early-exit serving over the existing request path.

A :class:`CascadeExecutor` wraps a serving backend — a single
:class:`~repro.serving.frontend.ServingFrontend` or a whole
:class:`~repro.cluster.router.ClusterRouter` — and serves every request
through a :class:`~repro.cascade.spec.CascadeSpec`:

1. the batch is submitted to stage 0's model through the backend's normal
   path (admission, queueing, coalescing, backlog-aware placement —
   nothing is bypassed);
2. at completion, the stage's exit rule decides how many samples take
   this answer: real per-sample softmax confidences when the request
   carried host data, a seeded Binomial draw from the measured
   :class:`~repro.cascade.confidence.CascadeProfile` otherwise;
3. the remnant is re-enqueued as a *deadline-inheriting follow-up
   request*: fresh request id, arrival = now, the chain's original
   absolute deadline and first-arrival time
   (``InferenceRequest.origin_arrival_s``) — so a follow-up is a
   first-class request (exactly-once ledger, drains, crashes, retries all
   apply) whose end-to-end latency honestly counts from the first hop;
4. if the deadline has already passed when a remnant would escalate, it
   takes the current stage's answer instead (a *forced exit* — the
   accuracy-graceful alternative to shedding); if the escalation itself
   is shed downstream, the previous stage's answer stands (a
   *fallback*).

Placement: each stage's ``device_bias`` is installed as a per-model
preference on every node's :class:`~repro.sched.backlog.
BacklogAwareScheduler` (cheap stage → CPU/iGPU, heavy stage → dGPU), and
every adaptive threshold change invalidates that node's stage-0 decision
cells.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.errors import SchedulerError
from repro.cascade.chain import CascadeChain, CascadeResult
from repro.cascade.confidence import CascadeProfile
from repro.cascade.controller import ThresholdController
from repro.cascade.spec import CascadeSpec
from repro.cascade.telemetry import CascadeTelemetry
from repro.nn.activations import softmax
from repro.rng import ensure_rng
from repro.serving.frontend import INGRESS_NODE
from repro.workloads.requests import InferenceRequest, RequestTrace

__all__ = ["CascadeExecutor"]

#: Default base for executor-allocated request ids, far above any trace's
#: own ids so cascade requests never collide in a router's ledger.
_ID_BASE = 1_000_000_000


class CascadeExecutor:
    """Runs a cascade over a serving frontend or cluster router.

    Parameters
    ----------
    backend:
        A ``ServingFrontend`` or ``ClusterRouter`` (duck-typed: needs
        ``loop``, ``specs``, ``submit_request``, ``run``).  Every stage
        model must already be deployed on it.
    cascade:
        The stage chain (see :class:`CascadeSpec`).
    profile:
        Measured confidence profile for virtual (no-host-data) requests
        and the accuracy proxy (see :func:`~repro.cascade.confidence.
        profile_cascade`).
    controller:
        Adaptive stage-0 threshold controller; None pins thresholds to
        the spec's static exit rules.
    slo_s:
        The relative SLO the controller compares tails against; None
        falls back to stage 0's configured serving deadline.
    rng:
        Seed for the Binomial exit draws — same seed, same trace, same
        per-stage exit counts, exactly.
    """

    def __init__(
        self,
        backend,
        cascade: CascadeSpec,
        profile: CascadeProfile,
        controller: "ThresholdController | None" = None,
        slo_s: "float | None" = None,
        rng: "int | np.random.Generator | None" = None,
        policy: str = "throughput",
        id_base: int = _ID_BASE,
    ):
        deployed = set(backend.specs)
        missing = [n for n in cascade.model_names if n not in deployed]
        if missing:
            raise SchedulerError(
                f"cascade {cascade.name!r} needs models not deployed on the "
                f"backend: {missing} (deployed: {sorted(deployed)})"
            )
        self.backend = backend
        self.loop = backend.loop
        self.cascade = cascade
        self.profile = profile
        self.controller = controller
        self.policy = policy
        self.telemetry = CascadeTelemetry(cascade=cascade.name)
        self.chains: "list[CascadeChain]" = []
        self._rng = ensure_rng(rng)
        self._next_id = int(id_base)

        if slo_s is None:
            entry_cfg = self._frontends()[0][1].slo_for(cascade.entry.spec.name)
            slo_s = entry_cfg.deadline_s
        self.slo_s = slo_s

        # Install per-stage placement bias on every node's backlog
        # scheduler (cheap stage -> CPU/iGPU, heavy stage -> dGPU).
        for _key, frontend in self._frontends():
            for stage in cascade.stages:
                if stage.device_bias is not None:
                    frontend.backlog.set_model_preference(
                        stage.spec.name, stage.device_bias
                    )

        # Surface cascade counters in the backend's telemetry snapshots.
        backend.telemetry.cascade = self.telemetry

        # Shed counters per node, for the controller's shed-delta signal.
        self._last_shed = {
            key: frontend.telemetry.n_shed
            for key, frontend in self._frontends()
        }

    # -- backend views -----------------------------------------------------

    def _frontends(self) -> "list[tuple[str, object]]":
        """``(node_key, frontend)`` pairs the executor steers."""
        nodes = getattr(self.backend, "nodes", None)
        if nodes is None:
            return [(INGRESS_NODE, self.backend)]
        return [(node.name, node.frontend) for node in nodes]

    def _alloc_id(self) -> int:
        rid = self._next_id
        self._next_id += 1
        return rid

    # -- thresholds --------------------------------------------------------

    def threshold_for(self, stage_index: int, node_key: str) -> float:
        """The exit threshold stage ``stage_index`` applies on one node.

        Stage 0 is the adaptive lever (per-node, controller-tuned);
        deeper stages keep their static rule thresholds.
        """
        rule = self.cascade.stage(stage_index).exit_rule
        if rule is None:
            raise SchedulerError("the final stage has no exit threshold")
        if stage_index == 0 and self.controller is not None:
            return self.controller.threshold(node_key)
        return rule.threshold

    # -- submission --------------------------------------------------------

    def submit(
        self,
        batch: "int | None" = None,
        x: "np.ndarray | None" = None,
        deadline_s: "float | None" = None,
        arrival_s: "float | None" = None,
    ) -> CascadeChain:
        """Submit one batch to the cascade; returns a pending chain.

        ``x`` is an optional host batch — with it, exit decisions use the
        real per-sample confidences of the returned scores; without it,
        exits are drawn from the measured profile.  ``deadline_s`` is the
        relative SLO from arrival (None uses the executor's ``slo_s``).
        """
        if x is not None:
            x = np.ascontiguousarray(x, dtype=np.float32)
            if batch is not None and batch != x.shape[0]:
                raise SchedulerError(
                    f"batch {batch} disagrees with x.shape[0]={x.shape[0]}"
                )
            batch = int(x.shape[0])
        if batch is None or batch <= 0:
            raise SchedulerError(f"submit needs a positive batch, got {batch}")
        arrival = self.loop.now if arrival_s is None else float(arrival_s)
        relative = deadline_s if deadline_s is not None else self.slo_s
        deadline = None if relative is None else arrival + relative
        chain = CascadeChain(
            chain_id=len(self.chains),
            batch=batch,
            origin_arrival_s=arrival,
            deadline_s=deadline,
            policy=self.policy,
            x=x,
        )
        # Recorded only once stage 0 has accepted it: a refused submit
        # must not leave a chain pending forever.
        self._submit_stage(chain, 0, batch, x, arrival)
        self.chains.append(chain)
        self.telemetry.n_chains += 1
        return chain

    def serve_trace(
        self,
        trace: RequestTrace,
        control_every_s: "float | None" = None,
        control_tail_s: float = 0.5,
    ) -> CascadeResult:
        """Serve a whole trace through the cascade and drain the loop.

        Each trace request becomes one chain entering at stage 0 (the
        request's ``model`` field is ignored — the cascade decides who
        runs what); its own deadline wins over the executor's ``slo_s``.
        With ``control_every_s`` set (and a controller), adaptive ticks
        run through ``control_tail_s`` past the last arrival.
        """
        for request in trace:
            relative = (
                None
                if request.deadline_s is None
                else request.deadline_s - request.arrival_s
            )
            self.submit(
                batch=request.batch,
                deadline_s=relative,
                arrival_s=request.arrival_s,
            )
        if control_every_s is not None and self.controller is not None:
            self.schedule_control(
                until=trace.horizon_s + control_tail_s, every_s=control_every_s
            )
        self.backend.run()
        return self.result()

    def _submit_stage(
        self,
        chain: CascadeChain,
        stage_index: int,
        batch: int,
        x: "np.ndarray | None",
        arrival_s: float,
    ) -> None:
        stage = self.cascade.stage(stage_index)
        request = InferenceRequest(
            request_id=self._alloc_id(),
            arrival_s=arrival_s,
            model=stage.spec.name,
            batch=batch,
            policy=chain.policy,
            deadline_s=chain.deadline_s,
            origin_arrival_s=chain.origin_arrival_s if stage_index else None,
        )
        response = self.backend.submit_request(request, x)
        response.on_done = partial(self._on_stage_done, chain, stage_index)

    # -- stage resolution --------------------------------------------------

    def _on_stage_done(
        self, chain: CascadeChain, stage_index: int, response
    ) -> None:
        now = self.loop.now
        if response.status == "shed":
            self._on_stage_shed(chain, stage_index, response, now)
            return

        end = response.end_s
        batch = response.request.batch
        chain.last_end_s = end
        chain.n_stages_run += 1

        if stage_index == self.cascade.n_stages - 1:
            # The heavy model answers everything that reaches it.
            self._record_exit(chain, stage_index, batch, agreement=1.0)
            self._resolve(chain, stage_index, end)
            return

        stage = self.cascade.stage(stage_index)
        rule = stage.exit_rule
        theta = self.threshold_for(stage_index, response.node_name)
        scores = response.scores

        if scores is not None and chain.x is not None:
            # Real data: exits follow the actual per-sample confidences.
            proba = softmax(np.asarray(scores, dtype=np.float64))
            if proba.shape[1] < 2:
                conf = proba[:, 0]
            elif rule.kind == "top1":
                conf = np.max(proba, axis=1)
            else:
                part = np.partition(proba, -2, axis=1)
                conf = part[:, -1] - part[:, -2]
            exit_mask = conf >= theta
            n_exit = int(exit_mask.sum())
            x_next = chain.x[~exit_mask]
        else:
            # Virtual data: a seeded Binomial draw from the measured
            # exit fraction — simulated faithfully, deterministically.
            p_exit = self.profile.stage(stage_index).exit_fraction(rule.kind, theta)
            n_exit = int(self._rng.binomial(batch, p_exit))
            x_next = None

        n_escalate = batch - n_exit
        stage_profile = self.profile.stage(stage_index)
        if n_exit:
            self._record_exit(
                chain, stage_index, n_exit,
                agreement=stage_profile.agreement(rule.kind, theta),
            )
        if n_escalate == 0:
            self._resolve(chain, stage_index, end)
            return

        if chain.deadline_s is not None and now >= chain.deadline_s:
            # Deadline already blown: answering the remnant here (with the
            # cheap stage's lower agreement) beats shedding it outright —
            # the accuracy-graceful degradation path.
            self._record_exit(
                chain, stage_index, n_escalate,
                agreement=stage_profile.agreement_below(rule.kind, theta),
            )
            chain.forced = True
            self.telemetry.n_forced_chains += 1
            self.telemetry.n_forced_samples += n_escalate
            self._resolve(chain, stage_index, end)
            return

        chain.x = x_next
        self.telemetry.record_escalation(stage_index, n_escalate)
        self._submit_stage(chain, stage_index + 1, n_escalate, x_next, now)

    def _on_stage_shed(
        self, chain: CascadeChain, stage_index: int, response, now: float
    ) -> None:
        if stage_index == 0:
            # Nothing answered anything: the chain itself is shed.
            chain.status = "shed"
            chain.shed_reason = response.shed_reason
            chain.end_s = now
            self.telemetry.n_shed_chains += 1
            return
        # A shed escalation falls back to the previous stage's answer: the
        # remnant already has one, it just is not the heavy model's.
        prev = stage_index - 1
        rule = self.cascade.stage(prev).exit_rule
        theta = self.threshold_for(prev, response.node_name)
        self._record_exit(
            chain, prev, response.request.batch,
            agreement=self.profile.stage(prev).agreement_below(rule.kind, theta),
        )
        chain.fallback = True
        self.telemetry.n_fallback_chains += 1
        self._resolve(chain, prev, chain.last_end_s)

    def _record_exit(
        self, chain: CascadeChain, stage: int, samples: int, agreement: float
    ) -> None:
        chain.exits[stage] = chain.exits.get(stage, 0) + samples
        self.telemetry.record_exit(stage, samples, agreement)

    def _resolve(self, chain: CascadeChain, stage: int, end_s: float) -> None:
        chain.status = "ok"
        chain.answer_stage = stage
        chain.end_s = end_s
        self.telemetry.record_answer(stage, end_s - chain.origin_arrival_s)

    # -- adaptive control --------------------------------------------------

    def control_tick(self) -> None:
        """One adaptive-threshold step over every node (see controller).

        Reads each node's queue depth, recent p99 and shed delta; a
        changed threshold invalidates that node's stage-0 decision-cache
        cells so stale placements cannot outlive the retune.
        """
        if self.controller is None:
            raise SchedulerError("executor was built without a controller")
        now = self.loop.now
        entry_model = self.cascade.entry.spec.name
        for key, frontend in self._frontends():
            shed_now = frontend.telemetry.n_shed
            shed_delta = shed_now - self._last_shed[key]
            self._last_shed[key] = shed_now
            _theta, changed = self.controller.tick(
                key,
                now,
                depth=frontend.queued,
                recent_p99_s=frontend.telemetry.recent.p99_s,
                slo_s=self.slo_s,
                shed_delta=shed_delta,
            )
            if changed:
                frontend.backlog.invalidate_model(entry_model)

    def schedule_control(self, until: float, every_s: float = 0.05):
        """Tick the controller every ``every_s`` through ``until``."""
        if self.controller is None:
            raise SchedulerError("executor was built without a controller")
        return self.loop.schedule_repeating(
            every_s, lambda _loop: self.control_tick(), until=until,
            label="cascade-control",
        )

    # -- driving / results -------------------------------------------------

    def run(self, until: "float | None" = None) -> float:
        """Drive the backend's event loop."""
        return self.backend.run(until=until)

    def result(self) -> CascadeResult:
        """Every chain plus the cascade telemetry sink."""
        return CascadeResult(chains=list(self.chains), telemetry=self.telemetry)

    @property
    def n_pending(self) -> int:
        """Chains submitted but not yet resolved."""
        return sum(1 for c in self.chains if not c.done)

    def stats(self) -> dict:
        """Cascade snapshot plus the controller's state, if any."""
        out = self.telemetry.snapshot()
        if self.controller is not None:
            out["controller"] = self.controller.snapshot()
        return out
