"""The shard coordinator: conservative virtual-time sync across workers.

:func:`run_sharded` replays one trace over a fleet partitioned into
logical groups (see :class:`ShardPlan`) hosted by N worker processes.
Virtual time advances in conservative windows, Chandy–Misra–Bryant
style: the lookahead is the minimum front-tier routing delay — a request
routed at boundary ``T`` cannot arrive at a shard before ``T`` — so no
shard ever executes past ``min(peer clocks) + lookahead``, and within a
window every shard runs barrier-free at full speed.

Protocol per window ``k`` (dynamic front tiers)::

    workers --(WindowDone: ShardSummary per group @ T_k)--> coordinator
    coordinator: front_tier.begin_window(summaries)
                 choose(arrivals in [T_k, T_k + L)), one call per window
    coordinator --(WindowAssign: trace indices, until=T_k + L)--> workers
    workers: inject arrivals, run(until=T_k + L), summarize

Static front tiers (``hash``, ``round-robin``) collapse the whole thing:
the assignment is a pure function of the request stream, so one
``choose`` call routes the entire trace, it ships upfront, and the
shards run to completion independently.

Determinism: the unit of partitioning is the logical group, not the
process — group ``g`` gets the same RNG (child ``SeedSequence`` of the
global seed), the same traffic (the front tier never sees worker
boundaries) and its own event loop regardless of ``n_workers`` — so the
merged outcome digest is bit-identical across worker counts, and the
multiprocess path matches the inline (single-process, same protocol)
path bit for bit.

Crash safety: every blocking receive waits on the worker's pipe *and*
its process sentinel, so a worker dying mid-window surfaces as a
:class:`ShardWorkerError` naming the shard — never a hang.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral
from operator import attrgetter, itemgetter

import numpy as np

from repro.errors import SchedulerError
from repro.cluster.balancers import (
    BALANCERS,
    FRONT_TIERS,
    ShardSummary,
    make_front_tier,
)
from repro.cluster.node import NodeSpec
from repro.rng import DEFAULT_SEED
from repro.shard.digest import digest_rows
from repro.shard.messages import (
    Finalize,
    Ready,
    ShardWorkerError,
    StaticAssign,
    WindowAssign,
    WindowDone,
    WorkerFailure,
    WorkerResult,
)
from repro.shard.worker import (
    GroupConfig,
    GroupRuntime,
    WorkerConfig,
    handle,
    worker_main,
)
from repro.workloads.requests import RequestTrace

__all__ = ["ShardWorkerError", "ShardPlan", "ShardResult", "run_sharded"]


@dataclass(frozen=True)
class ShardPlan:
    """How to partition a fleet across logical groups and processes.

    ``groups`` lists the node specs of each logical shard; ``n_workers``
    processes host them round-robin (group ``g`` lives on worker
    ``g % n_workers``).  Changing ``n_workers`` redistributes the same
    groups over more or fewer processes — it never changes what any group
    computes, which is the digest-invariance contract the tests pin down.

    ``lookahead_s`` is the conservative window width: the front tier's
    routing/network delay bound, and therefore both the summary staleness
    and the maximum any shard may run ahead of its peers.

    ``exact_latency`` is accepted for compatibility and must stay True:
    every latency digest is exact.
    """

    groups: tuple[tuple[NodeSpec, ...], ...]
    n_workers: int = 1
    lookahead_s: float = 0.25
    front_tier: str = "least-loaded"
    balancer: str = "least-ect"
    seed: int = DEFAULT_SEED
    exact_latency: bool = True

    def __post_init__(self) -> None:
        if not self.exact_latency:
            raise ValueError(
                "ShardPlan(exact_latency=False) was removed: every latency "
                "digest keeps all samples, so shards are always exact"
            )
        if not self.groups:
            raise SchedulerError("a shard plan needs at least one group")
        names: list[str] = []
        for gi, group in enumerate(self.groups):
            if not group:
                raise SchedulerError(f"shard group {gi} has no nodes")
            names.extend(spec.name for spec in group)
        if len(set(names)) != len(names):
            raise SchedulerError(
                f"node names must be unique across all shard groups: {names}"
            )
        n = self.n_workers
        if isinstance(n, bool) or not isinstance(n, Integral) or not (
            1 <= n <= len(self.groups)
        ):
            raise SchedulerError(
                f"n_workers must be an integer in [1, n_groups="
                f"{len(self.groups)}], got {self.n_workers!r}"
            )
        if not 0.0 < self.lookahead_s < math.inf:
            raise SchedulerError(
                f"lookahead_s must be positive and finite, got "
                f"{self.lookahead_s}"
            )
        if self.front_tier not in FRONT_TIERS:
            known = ", ".join(sorted(FRONT_TIERS))
            raise SchedulerError(
                f"unknown front tier {self.front_tier!r}; known: {known}"
            )
        if self.balancer not in BALANCERS:
            known = ", ".join(sorted(BALANCERS))
            raise SchedulerError(
                f"unknown balancer {self.balancer!r}; known: {known}"
            )

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def group_configs(self) -> tuple[GroupConfig, ...]:
        """Per-group configs with seeds derived from the global seed.

        Children are spawned in group order from one ``SeedSequence`` —
        group ``g``'s stream depends only on ``(seed, g)``, never on the
        worker layout.
        """
        children = np.random.SeedSequence(self.seed).spawn(self.n_groups)
        return tuple(
            GroupConfig(
                group=g,
                node_specs=tuple(specs),
                balancer=self.balancer,
                seed_seq=children[g],
            )
            for g, specs in enumerate(self.groups)
        )

    def worker_groups(self, worker: int) -> tuple[int, ...]:
        """The logical groups hosted by ``worker`` (round-robin deal)."""
        return tuple(
            g for g in range(self.n_groups) if g % self.n_workers == worker
        )


@dataclass
class ShardResult:
    """Merged outcome of a sharded replay, sorted by request id.

    ``rows`` are the canonical outcome tuples
    ``(request_id, status, node, device, end_s, shed_reason)``;
    :attr:`digest` hashes them in id order with the same line format the
    single-process benches use.  It is computed on first read and kept:
    the replay itself hashes nothing, just as the monolithic
    ``serve_trace`` computes no digest.  ``wall_s`` covers the replay
    protocol (routing, windows, drain, result collection) — not worker
    startup or the merge itself, mirroring how the monolithic benches time
    ``serve_trace`` but not fleet construction.

    ``group_telemetry`` maps each group to its router's
    ``FleetTelemetry.snapshot()``; ``group_utilization`` maps it to its
    event loop's :meth:`~repro.sim.engine.EventLoop.utilization` counters
    (events fired, runs, window stalls, ...), so shard imbalance shows
    without a profiler.
    """

    n_requests: int
    n_groups: int
    n_workers: int
    n_windows: int
    wall_s: float
    rows: "list[tuple]" = field(repr=False)
    group_telemetry: "dict[int, dict]" = field(default_factory=dict, repr=False)
    group_utilization: "dict[int, dict]" = field(default_factory=dict, repr=False)

    @cached_property
    def digest(self) -> str:
        """SHA-256 over :attr:`rows` (:func:`~repro.shard.digest.digest_rows`)."""
        return digest_rows(self.rows)

    @property
    def n_served(self) -> int:
        return sum(1 for row in self.rows if row[1] == "ok")

    @property
    def n_shed(self) -> int:
        return sum(1 for row in self.rows if row[1] == "shed")

    @property
    def shed_rate(self) -> float:
        return self.n_shed / self.n_requests if self.n_requests else 0.0

    def latency_percentile(self, q: float, trace: RequestTrace) -> float:
        """q-th percentile of served end-to-end latency, in seconds."""
        arrivals = {r.request_id: r.effective_arrival_s for r in trace}
        samples = [
            row[4] - arrivals[row[0]] for row in self.rows if row[1] == "ok"
        ]
        if not samples:
            raise SchedulerError("no served requests in sharded result")
        return float(np.percentile(samples, q))


def _worker_error(worker: int, groups, why: str) -> ShardWorkerError:
    return ShardWorkerError(f"shard worker {worker} (groups {list(groups)}) {why}")


def _initial_summaries(n_groups: int) -> tuple[ShardSummary, ...]:
    """The trivially-known state of freshly-built shards at t=0."""
    return tuple(
        ShardSummary(
            group=g, virtual_time_s=0.0, outstanding=0,
            outstanding_samples=0, queued=0, served=0, shed=0,
        )
        for g in range(n_groups)
    )


class _InlineWorker:
    """In-process stand-in for a worker: same protocol, no fork.

    Used by ``inline=True`` (fast tests, hypothesis suites) and pinned
    against the multiprocess path by the equivalence tests — the two must
    produce identical digests.  A failure inside a group surfaces as the
    forked driver reports it: a :class:`ShardWorkerError` naming the
    worker and its groups, the original exception chained.
    """

    def __init__(self, cfg: WorkerConfig):
        self.worker = cfg.worker
        self._runtimes = {g.group: GroupRuntime(g, cfg) for g in cfg.groups}
        self._replies: list = []

    def send(self, msg) -> None:
        try:
            reply = handle(self.worker, self._runtimes, msg)
        except Exception as exc:
            raise _worker_error(
                self.worker, self._runtimes,
                f"failed: {type(exc).__name__}: {exc}",
            ) from exc
        if reply is not None:
            self._replies.append(reply)

    def recv(self, timeout_s: float):
        return self._replies.pop(0)

    def shutdown(self) -> None:
        return None


class _PipeWorker:
    """A forked worker process plus its coordinator-side pipe end."""

    def __init__(self, ctx, cfg: WorkerConfig, groups: tuple[int, ...]):
        self.worker = cfg.worker
        self.groups = groups
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=worker_main,
            args=(child_conn, cfg),
            name=f"repro-shard-{cfg.worker}",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()

    def _die(self, why: str) -> None:
        raise _worker_error(self.worker, self.groups, why)

    def send(self, msg) -> None:
        try:
            self.conn.send(msg)
        except (BrokenPipeError, OSError):
            self._die(f"died before accepting {type(msg).__name__} "
                      f"(exit code {self.proc.exitcode})")

    def recv(self, timeout_s: float):
        from multiprocessing.connection import wait

        ready = wait([self.conn, self.proc.sentinel], timeout=timeout_s)
        if not ready:
            self._die(f"sent nothing for {timeout_s:.0f}s (deadlock guard)")
        if self.conn in ready:
            try:
                msg = self.conn.recv()
            except EOFError:
                self._die(f"died mid-window (exit code {self.proc.exitcode})")
            if isinstance(msg, WorkerFailure):
                self._die(f"failed:\n{msg.detail}")
            return msg
        # Only the sentinel fired: the process is gone with nothing queued.
        self.proc.join()
        self._die(f"died mid-window (exit code {self.proc.exitcode})")

    def shutdown(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=10.0)


def _window_slices(trace: RequestTrace, lookahead_s: float):
    """Split trace indices into windows ``[k*L, (k+1)*L)`` by arrival.

    Windows run to ``int(horizon / L) + 1`` at least, and on until every
    arrival is placed: the last boundary can round down onto the last
    arrival, which then belongs to one window more.
    """
    requests = trace.requests
    n_windows = int(trace.horizon_s / lookahead_s) + 1 if requests else 0
    slices = []
    lo = 0
    while len(slices) < n_windows or lo < len(requests):
        until = (len(slices) + 1) * lookahead_s
        hi = bisect.bisect_left(requests, until, lo, key=attrgetter("arrival_s"))
        slices.append((until, lo, hi))
        lo = hi
    return slices


def _route(front, requests, lo: int, hi: int, plan: ShardPlan) -> list:
    """Per worker: its groups' trace indices in ``[lo, hi)``, one ``choose``."""
    groups = front.choose(requests[lo:hi])
    indices = np.arange(lo, hi, dtype=np.int64)
    return [
        {g: indices[groups == g] for g in plan.worker_groups(w)}
        for w in range(plan.n_workers)
    ]


def _merge(outcomes, n_requests: int) -> "list[tuple]":
    """Every group's outcome columns as one row list, sorted by request id.

    Raises :class:`SchedulerError` when a group's columns differ in
    length, when the rows do not number ``n_requests``, or when one
    request resolved in two groups.
    """
    rows: "list[tuple]" = []
    for outcome in outcomes:
        try:
            rows.extend(zip(*outcome.columns, strict=True))
        except ValueError as exc:
            raise SchedulerError(
                f"group {outcome.group} shipped outcome columns of unequal "
                f"length ({exc})"
            ) from exc
    rows.sort(key=itemgetter(0))
    if len(rows) != n_requests:
        raise SchedulerError(
            f"sharded merge resolved {len(rows)} outcomes for a "
            f"{n_requests}-request trace"
        )
    for a, b in zip(rows, rows[1:]):
        if a[0] == b[0]:
            raise SchedulerError(f"request {a[0]} resolved on two shards")
    return rows


def _receive(worker, kind: type, timeout_s: float):
    """The worker's next reply, which the protocol says is a ``kind``."""
    msg = worker.recv(timeout_s)
    if not isinstance(msg, kind):
        raise ShardWorkerError(
            f"shard worker {worker.worker} sent {type(msg).__name__} where "
            f"{kind.__name__} was due"
        )
    return msg


def run_sharded(
    plan: ShardPlan,
    trace: RequestTrace,
    predictors,
    model_specs: dict,
    slo: "dict | None" = None,
    default_slo=None,
    inline: bool = False,
    profile: "str | None" = None,
    timeout_s: float = 300.0,
    fail_at: "tuple[int, int] | None" = None,
) -> ShardResult:
    """Replay ``trace`` over the sharded fleet described by ``plan``.

    ``inline=True`` runs every group in this process through the same
    window protocol (no fork) — for tests and platforms without the
    ``fork`` start method.  ``profile`` makes each worker dump
    ``<profile>.shard<i>`` cProfile stats.  ``fail_at=(worker, window)``
    is the crash-safety test hook: that forked worker hard-exits at that
    window (inline runs reject it: there is no process to kill).

    Raises :class:`ShardWorkerError` — never hangs — when a worker dies,
    errors, or goes silent past ``timeout_s`` (positive and finite).
    """
    if not 0.0 < timeout_s < math.inf:
        raise SchedulerError(
            f"timeout_s must be positive and finite, got {timeout_s}"
        )
    if inline and fail_at is not None:
        raise SchedulerError(
            f"fail_at={fail_at!r} simulates a worker process death, which "
            "needs forked workers; it cannot be used with inline=True"
        )
    front = make_front_tier(plan.front_tier, plan.n_groups)
    group_cfgs = plan.group_configs()
    workers: list = []

    def worker_cfg(w: int) -> WorkerConfig:
        return WorkerConfig(
            worker=w,
            groups=tuple(group_cfgs[g] for g in plan.worker_groups(w)),
            trace=trace,
            predictors=predictors,
            model_specs=model_specs,
            slo=slo,
            default_slo=default_slo,
            profile=profile,
            fail_at_window=(
                fail_at[1] if fail_at is not None and fail_at[0] == w else None
            ),
        )

    try:
        if inline:
            workers = [_InlineWorker(worker_cfg(w)) for w in range(plan.n_workers)]
        else:
            import multiprocessing as mp

            if "fork" not in mp.get_all_start_methods():
                raise SchedulerError(
                    "sharded replay needs the 'fork' start method (the trace "
                    "and predictors ship by copy-on-write); use inline=True "
                    "on this platform"
                )
            ctx = mp.get_context("fork")
            workers = [
                _PipeWorker(ctx, worker_cfg(w), plan.worker_groups(w))
                for w in range(plan.n_workers)
            ]
            for worker in workers:
                _receive(worker, Ready, timeout_s)

        requests = trace.requests
        t0 = time.perf_counter()

        if not front.uses_summaries:
            # Static assignment: route everything upfront, zero windows.
            shares = _route(front, requests, 0, len(requests), plan)
            for worker, share in zip(workers, shares):
                worker.send(StaticAssign(requests=share))
            n_windows = 0
        else:
            slices = _window_slices(trace, plan.lookahead_s)
            n_windows = len(slices)
            summaries = _initial_summaries(plan.n_groups)
            for k, (until, lo, hi) in enumerate(slices):
                front.begin_window(summaries)
                shares = _route(front, requests, lo, hi, plan)
                for worker, share in zip(workers, shares):
                    worker.send(
                        WindowAssign(window=k, until_s=until, requests=share)
                    )
                by_group: "dict[int, ShardSummary]" = {}
                for worker in workers:
                    done = _receive(worker, WindowDone, timeout_s)
                    if done.window != k:
                        raise ShardWorkerError(
                            f"shard worker {worker.worker} answered window "
                            f"{done.window} where {k} was due"
                        )
                    by_group.update((s.group, s) for s in done.summaries)
                summaries = tuple(by_group[g] for g in range(plan.n_groups))

        for worker in workers:
            worker.send(Finalize())
        outcomes = []
        for worker in workers:
            outcomes.extend(_receive(worker, WorkerResult, timeout_s).outcomes)
        wall_s = time.perf_counter() - t0
    finally:
        for worker in workers:
            worker.shutdown()

    return ShardResult(
        n_requests=len(trace),
        n_groups=plan.n_groups,
        n_workers=plan.n_workers,
        n_windows=n_windows,
        wall_s=wall_s,
        rows=_merge(outcomes, len(trace)),
        group_telemetry={o.group: o.telemetry for o in outcomes},
        group_utilization={o.group: o.utilization for o in outcomes},
    )
