"""The fleet router: one ingress dispatching traces across many nodes.

The router is the simulator's one ingestion path: a standalone
:class:`~repro.serving.frontend.ServingFrontend` is served as a one-node
fleet, its ``ingress``.  ``submit_request`` schedules the routing
decision *at the request's arrival instant* on the shared event loop (so
the balancing policy sees node load as it is then, not as it was at
trace submission), and the request is admitted after every event already
due at that instant (the tie rule, see ``docs/workloads.md``).  Each
request has one handle, a :class:`~repro.serving.frontend.ServingResponse`
the router creates and ledgers by request id; the chosen node registers
that same handle, and every later move (drain, retry, crash re-adoption)
hands it to the next node's ``readmit``, so it resolves exactly once
however many nodes it visits — resolving it twice raises:

* :meth:`drain_node` pops a node's queued requests (in-flight work
  finishes where it is) and immediately re-routes each through the
  balancing policy to a remaining active node;
* a re-routed request keeps its original arrival time and deadline, so
  its end-to-end latency honestly includes the time spent on the drained
  node;
* if no active node remains, the request resolves as shed
  (``no_active_node``) — resolved, never lost, never duplicated.

Built with a :class:`~repro.faults.config.ResilienceConfig`, the router
also arms the defensive stack (see ``docs/resilience.md``): per-node
circuit breakers the balancer respects, heartbeat crash detection with
exactly-once re-adoption of orphaned work, per-request rescue timeouts,
and deadline-respecting retries with seeded backoff jitter.  Without one
(the default) none of that machinery exists — no breakers, no extra
events, no random draws — so fault-free results stay digit-identical.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from repro.checks import require_host_batch
from repro.errors import SchedulerError
from repro.cluster.balancers import LoadBalancer, ShardSummary, make_balancer
from repro.cluster.node import ClusterNode, NodeState
from repro.faults.breaker import BreakerState, CircuitBreaker
from repro.faults.config import ResilienceConfig
from repro.rng import ensure_rng
from repro.serving.frontend import ServingFrontend, ServingResponse, ServingResult
from repro.sim.engine import TraceCursor, check_arrival_order
from repro.telemetry.fleet import FleetTelemetry
from repro.workloads.requests import InferenceRequest, RequestTrace

__all__ = ["ClusterEvent", "ClusterResult", "ClusterRouter"]


@dataclass(frozen=True)
class ClusterEvent:
    """One fleet-level occurrence, for the event log."""

    t_s: float
    kind: str        # 'scale_up' | 'drain_start' | 'drain_complete' |
                     # 'reroute' | 'route_failed' | 'node_down' | 'node_up' |
                     # 'breaker' | 'redeliver' | 'timeout' | 'shed'
    node: str
    detail: str = ""


@dataclass
class ClusterResult(ServingResult):
    """Aggregate outcome of serving a trace through the fleet: the
    serving accessors plus the event log, re-routes and node shares."""

    telemetry: FleetTelemetry = field(default_factory=FleetTelemetry)
    events: "list[ClusterEvent]" = field(default_factory=list)

    @property
    def rerouted(self) -> "list[ServingResponse]":
        """Requests placed more than once (drain, retry, re-adoption)."""
        return [r for r in self.responses if r.n_routes > 1]

    def node_shares(self) -> "dict[str, float]":
        """Fraction of served requests per node."""
        return self._shares("node_name")


class ClusterRouter:
    """Routes a request stream across a fleet of serving nodes.

    Parameters
    ----------
    nodes:
        The fleet (see :func:`repro.cluster.node.make_fleet`).  All nodes
        must share one event loop and serve the same model set.
    balancer:
        Balancing policy: a name (see
        :data:`repro.cluster.balancers.BALANCERS`) or an instance.
    rng:
        Seed for randomized policies when ``balancer`` is a name.
    resilience:
        Opt into the fault-tolerance stack (breakers, heartbeats,
        timeouts, retries).  None — the default — arms nothing: the
        router behaves exactly as before the resilience layer existed.
    """

    def __init__(
        self,
        nodes: "list[ClusterNode]",
        balancer: "LoadBalancer | str" = "round-robin",
        rng: "int | np.random.Generator | None" = None,
        resilience: "ResilienceConfig | None" = None,
    ):
        if not nodes:
            raise SchedulerError("a cluster router needs at least one node")
        names = [n.name for n in nodes]
        if len(set(names)) != len(names):
            raise SchedulerError(f"duplicate node names: {names}")
        loops = {id(n.frontend.loop) for n in nodes}
        if len(loops) != 1:
            raise SchedulerError(
                "all nodes must share one event loop (build them via "
                "make_fleet, or pass the same loop to every frontend)"
            )
        for node in nodes:
            if node.frontend._ingress is not None:
                raise SchedulerError(
                    f"node {node.name!r}'s frontend already ingests its own "
                    "submissions: route a frontend before submitting to it"
                )
        specs = nodes[0].frontend.specs
        for node in nodes[1:]:
            if set(node.frontend.specs) != set(specs):
                raise SchedulerError(
                    f"node {node.name!r} serves {sorted(node.frontend.specs)}, "
                    f"expected {sorted(specs)}"
                )

        self.nodes = list(nodes)
        self.loop = nodes[0].frontend.loop
        self.specs = dict(specs)
        self.balancer = (
            balancer
            if isinstance(balancer, LoadBalancer)
            else make_balancer(balancer, rng=rng)
        )
        self.telemetry = FleetTelemetry()
        for node in self.nodes:
            self.telemetry.attach(node.name, node.frontend.telemetry)
            node.frontend._routed_as = node.name

        self.events: "list[ClusterEvent]" = []
        self.n_rerouted = 0
        self._responses: "list[ServingResponse]" = []
        self._ids: "set[int]" = set()   # every ledgered request id
        self._seq = 0
        self._n_resolved = 0  # ledger counters: ServingResponse.resolve
        self._n_good = 0

        # -- resilience (armed only when a config is given) -----------------
        self.resilience = resilience
        self._breakers: "dict[str, CircuitBreaker]" = {}
        self._crashes_handled: "dict[str, int]" = {}
        self._retry_rng: "np.random.Generator | None" = None
        if resilience is not None:
            self._retry_rng = ensure_rng(resilience.seed)
            for node in self.nodes:
                self._breakers[node.name] = CircuitBreaker(
                    failure_threshold=resilience.failure_threshold,
                    cooldown_s=resilience.breaker_cooldown_s,
                    max_cooldown_s=resilience.breaker_max_cooldown_s,
                    on_transition=partial(self._on_breaker_transition, node.name),
                )
                self._crashes_handled[node.name] = node.crash_count
                node.frontend.on_request_failed = partial(
                    self._on_node_failure, node
                )

    # -- fleet views -------------------------------------------------------

    @property
    def active_nodes(self) -> "list[ClusterNode]":
        return [n for n in self.nodes if n.state is NodeState.ACTIVE]

    @property
    def standby_nodes(self) -> "list[ClusterNode]":
        return [n for n in self.nodes if n.state is NodeState.STANDBY]

    @property
    def draining_nodes(self) -> "list[ClusterNode]":
        return [n for n in self.nodes if n.state is NodeState.DRAINING]

    @property
    def down_nodes(self) -> "list[ClusterNode]":
        return [n for n in self.nodes if n.state is NodeState.DOWN]

    def routable_nodes(self) -> "list[ClusterNode]":
        """Active nodes the balancer may target right now.

        Without resilience this is exactly :attr:`active_nodes`; with it,
        nodes whose breaker is not CLOSED are skipped (HALF_OPEN takes
        probes, not traffic).
        """
        active = self.active_nodes
        if self.resilience is None:
            return active
        return [n for n in active if self._breakers[n.name].allows_traffic]

    def node(self, name: str) -> ClusterNode:
        for n in self.nodes:
            if n.name == name:
                return n
        known = ", ".join(n.name for n in self.nodes)
        raise SchedulerError(f"no node {name!r} in fleet (has: {known})")

    def _log(self, kind: str, node: str, detail: str = "") -> None:
        self.events.append(ClusterEvent(self.loop.now, kind, node, detail))

    # -- submission --------------------------------------------------------

    def submit(
        self,
        model: str,
        batch: int,
        deadline_s: "float | None" = None,
        arrival_s: "float | None" = None,
    ) -> ServingResponse:
        """Submit one request by value; router assigns the request id."""
        arrival = self.loop.now if arrival_s is None else float(arrival_s)
        request = InferenceRequest(
            request_id=self._seq,
            arrival_s=arrival,
            model=model,
            batch=batch,
            deadline_s=None if deadline_s is None else arrival + deadline_s,
        )
        return self.submit_request(request)

    def submit_request(
        self, request: InferenceRequest, x: "np.ndarray | None" = None
    ) -> ServingResponse:
        """Enqueue a routing decision at the request's arrival instant.

        The node choice happens *when the request arrives* on the shared
        clock — the policy reads fleet load at that moment — and so does
        admission on the chosen node, in the same event when nothing else
        is due then (see :meth:`_place`).  Request ids must be unique per
        router (they key the exactly-once ledger).  ``x``, when given, must
        hold ``request.batch`` rows of the model's input.
        """
        spec = self.specs.get(request.model)
        if x is not None and spec is not None:
            require_host_batch(x, spec, request.batch)
        if request.arrival_s < self.loop.now:
            raise SchedulerError(
                f"cannot submit into the past: arrival {request.arrival_s} "
                f"< now={self.loop.now}"
            )
        (response,) = self._register((request,), (request.arrival_s,))
        response.x = x
        self.loop.schedule(
            request.arrival_s, partial(self._place, response, None),
            label="route",
        )
        return response

    def _register(self, requests, times) -> "list[ServingResponse]":
        """Check a batch of requests whole, then ledger one handle each.

        Nothing is ledgered unless every model is deployed, no id repeats
        (within the batch or against the ledger) and ``times``, the
        arrivals, are non-decreasing from the loop's clock.
        """
        unknown = sorted({r.model for r in requests}.difference(self.specs))
        if unknown:
            known = ", ".join(sorted(self.specs)) or "<none>"
            raise SchedulerError(
                f"model {unknown[0]!r} is not served; deployed: {known}"
            )
        ids = [request.request_id for request in requests]
        unique = set(ids)
        if len(unique) != len(ids) or not unique.isdisjoint(self._ids):
            seen = set(self._ids)   # the first id seen twice (add is None)
            rid = next(i for i in ids if i in seen or seen.add(i))
            raise SchedulerError(
                f"duplicate request_id {rid} "
                "(the router's exactly-once ledger is keyed by id)"
            )
        check_arrival_order(times, self.loop.now)
        responses = [ServingResponse(request, self) for request in requests]
        self._ids |= unique
        self._responses.extend(responses)
        self._seq = max(self._seq, max(ids, default=-1) + 1)
        return responses

    def _place(
        self, response: ServingResponse, why: "str | None", _loop=None
    ) -> "ClusterNode | None":
        """The one placement step: choose a node, hand over, watch.

        The handle names the node and counts the route before the node
        sees it, so a resolution inside the hand-over reports where it
        happened.  ``why`` None is a first route, made in the request's
        route event.  When no other live event is due at this instant
        (:meth:`~repro.sim.engine.EventLoop.due_now`), the node's arrival
        event would be the very next to fire, so the arrival runs here,
        after the timeout arm, and admission reuses the completion delay
        the balancer probed on the node (least-ECT).  Otherwise the
        arrival event is scheduled and takes its turn behind what is due.
        Either way the event order and every outcome are the same; only
        the event count differs.

        Any other ``why`` (drain, retry) is a re-entry through the node's
        ``readmit``, on the same handle.  With no routable node the
        request resolves as shed (``no_active_node``), logged with
        ``why`` as context.  Returns the chosen node, or None when shed.
        """
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
        balancer = self.balancer
        node = balancer.choose(active, request, spec, self.loop.now)
        frontend = node.frontend
        response.node_name = node.name
        response.n_routes += 1
        arriving = False
        if why is not None:
            frontend.readmit(response)
        else:
            frontend.register_request(response)
            if self.loop.due_now():
                self.loop.schedule(
                    self.loop.now, partial(frontend.deliver, response),
                    label="arrive",
                )
            else:
                arriving = True
        # Armed before the arrival runs, so the timeout's seq precedes
        # every seq the arrival allocates, as on the scheduled path.
        self._arm_timeout(response)
        if arriving:
            frontend.deliver(response, est_delay=balancer.probed_delay)
        return node

    # -- membership (used by the autoscaler, or directly) ------------------

    def activate_node(self, name: str) -> ClusterNode:
        """Bring a standby node into the serving set."""
        node = self.node(name)
        node.activate()
        self._log("scale_up", node.name)
        return node

    def drain_node(self, name: str) -> int:
        """Gracefully remove a node: re-route its queue, let flights land.

        Returns the number of requests re-routed.  Each drained request is
        re-routed through the balancing policy at the drain instant; with
        no active node left it resolves as shed — exactly-once either way.
        """
        node = self.node(name)
        drained = node.start_drain()
        self._log("drain_start", node.name, f"{len(drained)} re-routed")
        for response in drained:
            target = self._place(response, "drain")
            if target is not None:
                self.n_rerouted += 1
                rid = response.request.request_id
                self._log("reroute", target.name, f"request {rid}")
        if node.finish_drain_if_idle():
            self._log("drain_complete", node.name)
        return len(drained)

    def sweep_drains(self) -> int:
        """Flip any fully-landed draining nodes to standby."""
        done = 0
        for node in self.draining_nodes:
            if node.finish_drain_if_idle():
                self._log("drain_complete", node.name)
                done += 1
        return done

    # -- resilience: timeouts and retries ----------------------------------

    def _arm_timeout(self, response: ServingResponse) -> None:
        """Watch one freshly-bound request for a rescue timeout.

        The firing is stamped with the placement count (``n_routes``),
        so a timeout armed for an earlier node is a dead letter once the
        request moves on.  No-op without a resilience config.
        """
        cfg = self.resilience
        if cfg is None or cfg.timeout_s is None:
            return
        self.loop.schedule(
            self.loop.now + cfg.timeout_s,
            partial(self._on_timeout, response, response.n_routes),
            label="timeout",
        )

    def _on_timeout(
        self, response: ServingResponse, routes: int, _loop=None
    ) -> None:
        if response.done or response.n_routes != routes:
            return  # resolved, or moved on since arming — stale firing
        node = self.node(response.node_name)
        if node.frontend.cancel_queued(response.request.request_id) is None:
            # In flight: it will complete (cancelling a launched batch
            # would risk running twice), so just keep watching.
            self._arm_timeout(response)
            return
        self.telemetry.resilience.n_timeouts += 1
        self._log("timeout", node.name, f"request {response.request.request_id}")
        self._retry_or_shed(response, "timeout")

    def _retry_or_shed(self, response: ServingResponse, reason: str) -> None:
        """Decide a rescued request's fate: deadline first, then budget.

        The caller must own ``response`` exclusively (physically removed
        from wherever it lived) — this either schedules a backoff
        redelivery or resolves it as shed, exactly one of the two.
        """
        retry = self.resilience.retry
        if self._shed_if_late(response, reason):
            return
        if not retry.allows_retry(response.n_routes):
            rid = response.request.request_id
            response.resolve("shed", "retry_budget_exhausted")
            self.telemetry.resilience.n_shed_retry_budget += 1
            self._log("shed", "-", f"request {rid} out of attempts ({reason})")
            return
        delay = retry.backoff_s(response.n_routes, self._retry_rng)
        self.telemetry.resilience.n_retries += 1
        self.loop.schedule(
            self.loop.now + delay, partial(self._redeliver, response),
            label="retry",
        )

    def _shed_if_late(self, response: ServingResponse, why: str) -> bool:
        """Shed a router-held request whose deadline has passed."""
        deadline = response.request.deadline_s
        if deadline is None or self.loop.now < deadline:
            return False
        rid = response.request.request_id
        response.resolve("shed", "deadline_exceeded")
        self.telemetry.resilience.n_shed_deadline += 1
        self._log("shed", "-", f"request {rid} past deadline ({why})")
        return True

    def _redeliver(self, response: ServingResponse, _loop=None) -> None:
        """Hand a router-held handle to a routable node (retry / re-adopt)."""
        if self._shed_if_late(response, "backoff"):
            return
        node = self._place(response, "retry")
        if node is not None:
            self.telemetry.resilience.n_redelivered += 1
            self._log(
                "redeliver", node.name, f"request {response.request.request_id}"
            )

    def _on_node_failure(
        self, node: ClusterNode, response: ServingResponse, reason: str
    ) -> None:
        """Frontend hook: one request's launch failed transiently.

        Takes ownership: the frontend leaves the response pending for the
        router to retry or shed.  Every handle on a routed node came
        through this router.
        """
        self.telemetry.resilience.n_failures += 1
        self._breakers[node.name].record_failure(self.loop.now)
        self._retry_or_shed(response, "inference_error")

    # -- resilience: health checks -----------------------------------------

    def health_check(self) -> None:
        """One heartbeat sweep over the fleet (no-op without resilience).

        Detects crashes (the monotone ``crash_count`` moved) — tripping
        the breaker, marking the node DOWN and re-adopting its orphaned
        work exactly once — then walks every breaker: cooled-down OPEN
        breakers offer a HALF_OPEN probe, and the probe's verdict either
        re-closes the breaker (reviving a DOWN node into the serving set)
        or re-opens it with a doubled cooldown.
        """
        if self.resilience is None:
            return
        now = self.loop.now
        for node in self.nodes:
            if node.crash_count > self._crashes_handled[node.name]:
                self._handle_crash(node)
        for node in self.nodes:
            breaker = self._breakers[node.name]
            breaker.maybe_half_open(now)
            if breaker.state is not BreakerState.HALF_OPEN:
                continue
            if node.crashed:
                breaker.record_failure(now)   # probe failed: back off harder
                continue
            breaker.record_success(now)
            if node.state is NodeState.DOWN:
                restored = node.revive()
                self.telemetry.mark_node_up(node.name, now)
                self._log("node_up", node.name, f"restored {restored.value}")

    def _handle_crash(self, node: ClusterNode) -> None:
        now = self.loop.now
        self._crashes_handled[node.name] = node.crash_count
        self.telemetry.resilience.n_crashes_detected += 1
        self._breakers[node.name].trip(now)
        if node.state is not NodeState.DOWN:
            self.telemetry.mark_node_down(node.name, now)
        node.mark_down()
        lost = node.frontend.collect_lost()
        self._log("node_down", node.name, f"{len(lost)} orphaned")
        # Orphans are redelivered immediately — their time already burned
        # on the dead node — subject to the same deadline-first rule.
        for response in lost:
            self._redeliver(response)

    def _on_breaker_transition(
        self, name: str, now: float, old: BreakerState, new: BreakerState
    ) -> None:
        counters = self.telemetry.resilience
        if new is BreakerState.OPEN:
            counters.n_breaker_opens += 1
        elif new is BreakerState.HALF_OPEN:
            counters.n_breaker_half_opens += 1
        else:
            counters.n_breaker_closes += 1
        self._log("breaker", name, f"{old.value} -> {new.value}")

    def schedule_health(self, until: float):
        """Heartbeat every ``heartbeat_every_s`` through ``until``.

        The fleet's only heartbeat schedule: each tick is one
        :meth:`health_check` sweep.  Ticks stop past the horizon so the
        event loop can drain; schedule again (e.g. per trace) to keep
        monitoring across phases.
        """
        if self.resilience is None:
            raise SchedulerError("router was built without a ResilienceConfig")
        return self.loop.schedule_repeating(
            self.resilience.heartbeat_every_s,
            lambda _loop: self.health_check(),
            until=until,
            label="heartbeat",
        )

    def goodput(self) -> float:
        """Fraction of resolved requests that were served within their SLO.

        Counted over the router's own ledger, so router-level sheds
        (deadline passed, retry budget exhausted, no active node) weigh
        against it alongside node-level sheds and late completions.
        1.0 before anything resolves.  O(1): running counters.
        """
        if not self._n_resolved:
            return 1.0
        return self._n_good / self._n_resolved

    # -- driving -----------------------------------------------------------

    def run(self, until: "float | None" = None) -> float:
        """Drive the shared loop; sweep finished drains afterwards."""
        end = self.loop.run(until=until)
        self.sweep_drains()
        return end

    def serve_trace(
        self, trace: RequestTrace, vectorized: bool = True
    ) -> ClusterResult:
        """Replay a whole trace through the fleet and drain the loop.

        Ingestion is :meth:`feed_requests`: one cursor event per run of
        equal timestamps (see :meth:`_route_run`).  Outcomes are
        digit-identical to one :meth:`submit_request` per arrival
        followed by :meth:`run`, and to the two-event reference in
        ``tests/replay_oracle.py``; the equivalence tests replay mixed
        traces all three ways, with faults and partitions armed.

        With a resilience config, heartbeats are scheduled
        (:meth:`schedule_health`) through ``heartbeat_tail_s`` past the
        last arrival, so crashes during or just after the trace are
        detected.  ``vectorized`` is accepted for compatibility and must
        stay True.
        """
        if not vectorized:
            raise ValueError(
                "serve_trace(vectorized=False) was removed: the trace "
                "cursor is the only ingestion path; call submit_request "
                "per arrival, then run(), for one event per request"
            )
        responses = self.feed_requests(trace)
        if self.resilience is not None and responses:
            self.schedule_health(
                responses[-1].request.arrival_s + self.resilience.heartbeat_tail_s
            )
        self.run()
        return self.result()

    def feed_requests(self, requests) -> "list[ServingResponse]":
        """Ledger a batch of time-ordered requests and arm their cursor.

        The ingestion step of :meth:`serve_trace`, exposed on its own so
        a shard worker can inject each conservative window's arrivals
        mid-simulation: requests are registered upfront (their sequence
        block is reserved at injection time, keeping tie-breaks identical
        to per-request scheduling) and a
        :class:`~repro.sim.engine.TraceCursor` routes each run of equal
        timestamps in one pass (after one balancer ``prepare`` call); a
        lone arrival is admitted in its route event when nothing else is
        due then (see :meth:`_place`).
        The batch is checked whole before anything is ledgered (see
        :meth:`_register`): a rejected batch leaves the router as it
        was.  The caller drives the loop.
        """
        requests = list(requests)
        times = [request.arrival_s for request in requests]
        responses = self._register(requests, times)
        if responses:
            self.balancer.prepare(self.routable_nodes(), requests)
            TraceCursor(
                self.loop, times, partial(self._route_run, responses),
                label="route",
            ).start()
        return responses

    def shard_summary(self, group: int = 0) -> ShardSummary:
        """This router's load digest for the sharded front tier.

        O(#nodes) counter reads — cheap enough to take at every window
        boundary of a sharded replay.
        """
        queued = outstanding = outstanding_samples = served = shed = 0
        for node in self.nodes:
            frontend = node.frontend
            queued += frontend.queued
            outstanding += frontend.outstanding
            outstanding_samples += frontend.outstanding_samples
            served += frontend.telemetry.n_served
            shed += frontend.telemetry.n_shed
        return ShardSummary(
            group=group,
            virtual_time_s=self.loop.now,
            outstanding=outstanding,
            outstanding_samples=outstanding_samples,
            queued=queued,
            served=served,
            shed=shed,
        )

    def _route_run(self, responses: "list[ServingResponse]", i: int, j: int) -> None:
        """Route one run of simultaneous arrivals, then deliver in batch.

        Phase 1 (this event) makes every routing decision for the run.
        Until the deliveries land, nothing a pure balancer reads can
        change — queues and in-flight counters only move at delivery or
        dispatch — so one ``choose`` per (model, batch) cell reproduces
        the per-request decisions exactly.  Phase 2 is a single event at
        the same timestamp delivering the entries in submission order;
        its sequence number is allocated here, after the run's timeout
        arms, exactly where one submit_request per arrival allocates its
        arrival events — so timers and injector events landing on this
        instant interleave identically on both paths.

        A run of one request has no decision or probe to share, so it
        takes the one placement step, :meth:`_place`, that a
        :meth:`submit_request` route event takes: admitted in this event
        when nothing else is due at this instant, else by a scheduled
        arrival event.
        """
        if j - i == 1:
            self._place(responses[i], None)
            return
        active = self.routable_nodes()
        if not active:   # the placement step sheds each one
            for k in range(i, j):
                self._place(responses[k], None)
            return
        now = self.loop.now
        balancer = self.balancer
        specs = self.specs
        memo: "dict[tuple[str, int], ClusterNode] | None" = (
            {} if balancer.stateless_choice else None
        )
        watch = self.resilience is not None and self.resilience.timeout_s is not None
        deliveries: "list[tuple[ServingFrontend, ServingResponse]]" = []
        for k in range(i, j):
            response = responses[k]
            request = response.request
            if memo is None:
                node = balancer.choose(active, request, specs[request.model], now)
            else:
                key = (request.model, request.batch)
                node = memo.get(key)
                if node is None:
                    node = memo[key] = balancer.choose(
                        active, request, specs[request.model], now
                    )
            frontend = node.frontend
            response.node_name = node.name
            response.n_routes += 1
            frontend.register_request(response)
            if watch:
                self._arm_timeout(response)
            deliveries.append((frontend, response))
        self.loop.schedule(
            now, partial(self._deliver_run, deliveries), label="arrive"
        )

    def _deliver_run(
        self,
        deliveries: "list[tuple[ServingFrontend, ServingResponse]]",
        _loop=None,
    ) -> None:
        """Deliver one run's routed handles, per (frontend, model) segment.

        Every distinct frontend in the run opens a delivery run on one
        shared segment list (see
        :meth:`~repro.serving.frontend.ServingFrontend.begin_arrival_batch`):
        simultaneous arrivals of one (model, batch) cell cost one
        admission probe, admitted handles are pushed in bulk, and
        whatever ends a segment early on one frontend (a flush, a
        degrade, a shed's resolution hook) first pushes the pending
        handles of all of them.
        """
        run: list = []
        armed = [
            frontend
            for frontend in dict.fromkeys(frontend for frontend, _ in deliveries)
            if frontend.begin_arrival_batch(run)
        ]
        try:
            for frontend, response in deliveries:
                frontend.deliver(response)
        finally:
            for frontend in armed:
                frontend.end_arrival_batch()

    def result(self) -> ClusterResult:
        """The routed responses plus fleet telemetry and the event log."""
        return ClusterResult(
            responses=list(self._responses),
            telemetry=self.telemetry,
            events=list(self.events),
        )

    @property
    def n_pending(self) -> int:
        """Requests routed (or awaiting routing) but not yet resolved."""
        return len(self._responses) - self._n_resolved

    def decision_cache_stats(self) -> dict:
        """Fleet-wide rollup of the nodes' decision-cache counters: each
        counter summed over the nodes, the hit rate taken from the sums."""
        per_node = [node.frontend.backlog.cache_stats() for node in self.nodes]
        rollup = {key: sum(s[key] for s in per_node) for key in per_node[0]}
        lookups = rollup["hits"] + rollup["misses"]
        rollup["hit_rate"] = rollup["hits"] / lookups if lookups else 0.0
        return rollup

    def stats(self) -> dict:
        """Fleet snapshot: telemetry rollup plus per-node load/state."""
        out = {
            **self.telemetry.snapshot(),
            "balancer": self.balancer.name,
            "decision_cache": self.decision_cache_stats(),
            "pending": self.n_pending,
            "rerouted": self.n_rerouted,
            "virtual_time_s": self.loop.now,
            "states": {n.name: n.state.value for n in self.nodes},
            "load": {
                n.name: n.frontend.outstanding for n in sorted(
                    self.nodes, key=lambda n: n.name
                )
            },
        }
        if self.resilience is not None:
            out["resilience"] = {
                **asdict(self.telemetry.resilience),
                "availability": self.telemetry.availability(self.loop.now),
                "goodput": self.goodput(),
                "breakers": {
                    n.name: self._breakers[n.name].stats() for n in self.nodes
                },
            }
        return out
