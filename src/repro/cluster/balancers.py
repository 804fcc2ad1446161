"""Pluggable fleet load-balancing policies.

Each balancer answers one question: *which active node takes this
request?*  They differ in what they look at —

* ``round-robin`` — nothing: cycle the active set (the baseline every
  smarter policy must beat);
* ``least-outstanding`` — the node with the fewest unresolved requests;
* ``join-shortest-queue`` — the node with the least outstanding *work*
  (samples queued plus samples in flight; a node's "queue" includes the
  device command-queue backlog it has already committed to);
* ``power-of-two`` — sample two random active nodes, take the less loaded
  (the classic Mitzenmacher trick: most of JSQ's benefit at O(1) probes);
* ``least-ect`` — predictor-aware: ask each node's backlog scheduler for
  its learned estimated-completion delay for *this* request and join the
  earliest finisher — the cluster-level analogue of the paper's
  earliest-finisher spilling across devices.

Every policy reads nodes only through the frontend's running load
counters (``queued``, ``outstanding``, ``outstanding_samples``) or the
public ``estimate_completion`` — never private frontend state — and picks
among the nodes the router hands it: the router's routable set, filtered
once per placement before any sampling, so a drain can never receive new
traffic.

When the fleet itself is sharded (``repro.shard``), balancing becomes
two-level: a :class:`FrontTier` first picks a *shard* for each request —
from nothing but the request id (``hash``), a turn counter
(``round-robin``), or the periodically-exchanged :class:`ShardSummary`
load digests (``least-loaded``) — and the shard's own :class:`LoadBalancer`
then picks the node, unchanged.  Front tiers live here, next to the
balancers they sit above, so ``repro.shard`` depends on the cluster layer
and never the other way around.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import SchedulerError
from repro.nn.builders import ModelSpec
from repro.rng import ensure_rng
from repro.cluster.node import ClusterNode
from repro.workloads.requests import InferenceRequest

__all__ = [
    "LoadBalancer",
    "RoundRobinBalancer",
    "LeastOutstandingBalancer",
    "JoinShortestQueueBalancer",
    "PowerOfTwoBalancer",
    "LeastECTBalancer",
    "BALANCERS",
    "make_balancer",
    "ShardSummary",
    "FrontTier",
    "HashFrontTier",
    "RoundRobinFrontTier",
    "LeastLoadedFrontTier",
    "FRONT_TIERS",
    "make_front_tier",
]


class LoadBalancer:
    """Base policy: subclasses implement :meth:`_pick` over active nodes."""

    name = "abstract"

    #: Whether :meth:`choose` is a pure function of fleet state at one
    #: instant — no internal state advanced, no randomness drawn.  The
    #: router's trace cursor may then reuse one decision for every
    #: simultaneous arrival of the same (model, batch) cell, which is
    #: exactly what one routing event per request would have computed
    #: (nothing a pure policy reads changes between same-instant routing
    #: calls).
    #: Policies that mutate per call (round-robin's turn counter,
    #: power-of-two's RNG) must leave this False.
    stateless_choice = False

    #: The completion delay the last :meth:`choose` probed on the node it
    #: returned, or None when that call probed none (every policy but
    #: least-ECT, and any call with one eligible node).  The router hands
    #: it to admission when nothing can run between the two.
    probed_delay: "float | None" = None

    def prepare(
        self, nodes: "list[ClusterNode]", requests: "Iterable[InferenceRequest]"
    ) -> None:
        """The router ledgered ``requests`` and will route them over ``nodes``.

        Called once per ingestion, before any of them is routed, so a
        policy can batch per-request work; ``requests`` may be a one-pass
        iterator.  It may change a decision's cost, never the decision.
        """
        return None

    def choose(
        self,
        nodes: "list[ClusterNode]",
        request: InferenceRequest,
        spec: ModelSpec,
        now: float,
    ) -> ClusterNode:
        """Select the node that takes ``request`` (arriving at ``now``).

        ``nodes`` is the router's routable set
        (:meth:`~repro.cluster.router.ClusterRouter.routable_nodes`), the
        one filter that keeps traffic off draining, standby, down and
        breaker-open nodes; every node in it is eligible.
        """
        if not nodes:
            raise SchedulerError("no active node to route to")
        self.probed_delay = None
        if len(nodes) == 1:
            return nodes[0]
        return self._pick(nodes, request, spec, now)

    def _pick(
        self,
        nodes: "list[ClusterNode]",
        request: InferenceRequest,
        spec: ModelSpec,
        now: float,
    ) -> ClusterNode:
        raise NotImplementedError


class RoundRobinBalancer(LoadBalancer):
    """Cycle the active set in order — load-blind, perfectly fair."""

    name = "round-robin"

    def __init__(self) -> None:
        self._turn = 0

    def _pick(self, nodes, request, spec, now):
        node = nodes[self._turn % len(nodes)]
        self._turn += 1
        return node


class LeastOutstandingBalancer(LoadBalancer):
    """Fewest unresolved requests (queued + in flight); ties by name."""

    name = "least-outstanding"
    stateless_choice = True

    def _pick(self, nodes, request, spec, now):
        return min(nodes, key=lambda n: (n.frontend.outstanding, n.name))


class JoinShortestQueueBalancer(LoadBalancer):
    """Least outstanding *work* in samples; ties by count, then name."""

    name = "join-shortest-queue"
    stateless_choice = True

    @staticmethod
    def _load(node: ClusterNode) -> tuple:
        frontend = node.frontend
        return (frontend.outstanding_samples, frontend.outstanding, node.name)

    def _pick(self, nodes, request, spec, now):
        return min(nodes, key=self._load)


class PowerOfTwoBalancer(LoadBalancer):
    """Probe two random active nodes, join the shorter queue.

    Seeded for determinism: the same trace over the same fleet always
    routes identically.  Both probes sample the routable set the router
    hands over, so neither can land on a draining node.
    """

    name = "power-of-two"

    def __init__(self, rng: "int | np.random.Generator | None" = None):
        self._rng = ensure_rng(rng)

    def _pick(self, nodes, request, spec, now):
        i, j = self._rng.choice(len(nodes), size=2, replace=False)
        return min(
            (nodes[int(i)], nodes[int(j)]),
            key=JoinShortestQueueBalancer._load,
        )


class LeastECTBalancer(LoadBalancer):
    """Join the node whose scheduler estimates the earliest completion.

    Reuses each node's ``BacklogAwareScheduler.estimate_completion`` —
    device backlog plus the *learned* per-(cell, device) service time for
    this very request — so a node whose only devices are slow for this
    batch size is priced accordingly, not just by queue length.

    The forest runs once per ingestion, not per arrival: :meth:`prepare`
    scores every missing (model, batch interval) cell of the new requests,
    in both dGPU states, in batched forest calls on each distinct fitted
    predictor behind the routable nodes (``make_fleet`` fleets share one).
    Probes then read each cell's memoized class order.  Priming only moves
    cost — a cell it skips is scored lazily, bit-identically — and is
    skipped below two routable nodes, where :meth:`choose` never probes.
    """

    name = "least-ect"
    stateless_choice = True

    def prepare(self, nodes, requests) -> None:
        if len(nodes) < 2:
            return
        cells = dict.fromkeys((r.model, r.batch) for r in requests)
        primed = set()
        for node in nodes:
            backlog = node.frontend.backlog
            predictor = backlog.scheduler.predictors.get(backlog.policy)
            if predictor is None or not predictor.fitted or id(predictor) in primed:
                continue
            primed.add(id(predictor))
            specs = node.frontend.specs
            predictor.prime_cells(
                (specs[model], batch, state)
                for model, batch in cells for state in ("warm", "idle")
            )

    def _pick(self, nodes, request, spec, now):
        # Equal to min(nodes, key=(delay, samples, name)), but the sample
        # counts are read only for the nodes tied on the least delay.
        delays = [
            n.frontend.backlog.estimate_completion(spec, request.batch, now)[1]
            for n in nodes
        ]
        least = self.probed_delay = min(delays)
        tied = [n for n, delay in zip(nodes, delays) if delay == least]
        return tied[0] if len(tied) == 1 else min(tied, key=_samples_then_name)


def _samples_then_name(node: ClusterNode) -> tuple:
    """Least-ECT's tiebreak: outstanding samples, then name."""
    return (node.frontend.outstanding_samples, node.name)


BALANCERS = {
    RoundRobinBalancer.name: RoundRobinBalancer,
    LeastOutstandingBalancer.name: LeastOutstandingBalancer,
    JoinShortestQueueBalancer.name: JoinShortestQueueBalancer,
    PowerOfTwoBalancer.name: PowerOfTwoBalancer,
    LeastECTBalancer.name: LeastECTBalancer,
}


def make_balancer(
    name: str, rng: "int | np.random.Generator | None" = None
) -> LoadBalancer:
    """Build a balancing policy by name (see :data:`BALANCERS`).

    ``rng`` seeds the randomized policies (power-of-two) and is ignored by
    the deterministic ones.
    """
    try:
        cls = BALANCERS[name]
    except KeyError:
        known = ", ".join(sorted(BALANCERS))
        raise SchedulerError(
            f"unknown balancing policy {name!r}; known: {known}"
        ) from None
    if cls is PowerOfTwoBalancer:
        return cls(rng=rng)
    return cls()


# -- two-level balancing: the sharded front tier ---------------------------


@dataclass(frozen=True)
class ShardSummary:
    """One shard's load digest, exchanged at every window boundary.

    Produced by :meth:`ClusterRouter.shard_summary` at the shard's local
    virtual time and shipped to the coordinator, where the front tier
    reads it to route the *next* window's arrivals.  Everything here is a
    plain counter so the summary pickles in a few bytes: the front tier
    sees depth, not node identities — which nodes absorb the load is the
    shard-local balancer's business.
    """

    group: int
    virtual_time_s: float
    outstanding: int            # requests accepted, not yet resolved
    outstanding_samples: int    # same, in samples (queued + in flight)
    queued: int                 # not yet dispatched to a device worker
    served: int
    shed: int


class FrontTier:
    """Base shard-selection policy: ``choose`` maps requests to groups.

    The coordinator calls :meth:`begin_window` with the freshly-exchanged
    summaries (ordered by group id) before routing each window, then
    :meth:`choose` once with that window's arrivals.  Policies that ignore
    the summaries (``uses_summaries = False``) are *static*: the whole
    trace is routed by one upfront call and the shards run to completion
    with no window synchronization at all — which is also what makes a
    single-group static replay bit-identical to the monolithic
    ``serve_trace``.  Splitting a window over several calls routes it
    exactly as one call would.
    """

    name = "abstract"

    #: Whether choose() reads the exchanged summaries.  False means the
    #: assignment depends only on the request stream itself.
    uses_summaries = True

    def __init__(self, n_groups: int):
        if n_groups <= 0:
            raise SchedulerError(f"front tier needs >= 1 group, got {n_groups}")
        self.n_groups = n_groups

    def begin_window(self, summaries: "tuple[ShardSummary, ...]") -> None:
        """Install the summaries taken at the window's opening boundary."""
        return None

    def choose(self, requests: "Sequence[InferenceRequest]") -> np.ndarray:
        """One group id per request (int64), in request order."""
        raise NotImplementedError


class HashFrontTier(FrontTier):
    """Static: scramble the request id, take it mod the group count.

    The splitmix64 finalizer spreads even sequential ids uniformly, so
    traffic shares stay balanced without any load feedback — and the
    assignment is a pure function of (request_id, n_groups), reproducible
    anywhere.  It runs over the ids as one ``uint64`` array, whose
    arithmetic wraps mod 2**64 exactly as the finalizer specifies.
    """

    name = "hash"
    uses_summaries = False

    _MASK = (1 << 64) - 1

    def choose(self, requests):
        z = np.array([r.request_id & self._MASK for r in requests], dtype=np.uint64)
        z += np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return ((z ^ (z >> np.uint64(31))) % np.uint64(self.n_groups)).astype(np.int64)


class RoundRobinFrontTier(FrontTier):
    """Static: deal requests across groups in arrival order."""

    name = "round-robin"
    uses_summaries = False

    def __init__(self, n_groups: int):
        super().__init__(n_groups)
        self._turn = 0

    def choose(self, requests):
        n = len(requests)
        groups = np.arange(self._turn, self._turn + n, dtype=np.int64) % self.n_groups
        self._turn += n
        return groups


class LeastLoadedFrontTier(FrontTier):
    """Summary-driven: join the shard with the least outstanding work.

    The summaries are one window stale (that staleness bound *is* the
    lookahead), so the tier corrects them with its own in-window
    assignments: every choice adds the request's samples to the chosen
    group's pending count, preventing the degenerate "whole window to one
    shard" herd that raw stale minima would produce.  Ties break by
    outstanding request count, then group id — fully deterministic.
    """

    name = "least-loaded"

    def __init__(self, n_groups: int):
        super().__init__(n_groups)
        # Per group: summary outstanding plus this window's assignments.
        self._samples: "list[int] | None" = None
        self._counts: "list[int] | None" = None

    def begin_window(self, summaries):
        if len(summaries) != self.n_groups or any(
            s.group != g for g, s in enumerate(summaries)
        ):
            raise SchedulerError(
                f"front tier expects one summary per group 0..{self.n_groups - 1} "
                f"in order, got groups {[s.group for s in summaries]}"
            )
        self._samples = [s.outstanding_samples for s in summaries]
        self._counts = [s.outstanding for s in summaries]

    def choose(self, requests):
        samples, counts = self._samples, self._counts
        if samples is None:
            raise SchedulerError(
                "least-loaded front tier has no summaries yet; call "
                "begin_window() before routing a window"
            )
        rest = range(1, self.n_groups)
        out = []
        for request in requests:
            # Lexicographic min of (samples, count, group id).
            best, best_s, best_c = 0, samples[0], counts[0]
            for g in rest:
                s = samples[g]
                if s < best_s or (s == best_s and counts[g] < best_c):
                    best, best_s, best_c = g, s, counts[g]
            samples[best] = best_s + request.batch
            counts[best] = best_c + 1
            out.append(best)
        return np.array(out, dtype=np.int64)


FRONT_TIERS = {
    HashFrontTier.name: HashFrontTier,
    RoundRobinFrontTier.name: RoundRobinFrontTier,
    LeastLoadedFrontTier.name: LeastLoadedFrontTier,
}


def make_front_tier(name: str, n_groups: int) -> FrontTier:
    """Build a shard-selection policy by name (see :data:`FRONT_TIERS`)."""
    try:
        cls = FRONT_TIERS[name]
    except KeyError:
        known = ", ".join(sorted(FRONT_TIERS))
        raise SchedulerError(
            f"unknown front-tier policy {name!r}; known: {known}"
        ) from None
    return cls(n_groups)
