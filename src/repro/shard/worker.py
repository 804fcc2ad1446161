"""Shard worker: a few logical shard groups living in one process.

The unit of partitioning is the *logical group* — its own
:class:`~repro.sim.engine.EventLoop`, its own fleet subset, its own
shard-local :class:`~repro.cluster.router.ClusterRouter` — and a worker
process simply hosts one or more groups.  That split is what makes the
merged outcome digest invariant across worker counts: group ``g`` sees
exactly the same event sequence whether it shares a process with every
other group (``n_workers=1``) or runs alone (``n_workers=n_groups``),
because nothing a group computes ever reads another group's state
mid-window.

Determinism inputs per group, all derived from the plan:

* its RNG: child ``SeedSequence`` number ``g`` of the global seed;
* its sequence numbers: allocated by its *own* loop, so cross-group
  scheduling order never mixes;
* its traffic: the coordinator's front tier decides, identically for
  every worker count.

:func:`handle` is the worker protocol: it applies one coordinator
message to a worker's groups and returns the reply, or None.
``worker_main`` (the subprocess entry point, a blocking receive loop over
the coordinator pipe) and the coordinator's inline driver (tests,
property suites) both call it, so the two drive identical code.
Outcomes ship as six columns per group, one list per field of
``outcome_tuple()`` (:class:`~repro.shard.messages.GroupOutcome`): a
worker builds no per-request tuple, and the coordinator zips the columns
back into the very rows the digest hashes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from repro.cluster.node import NodeSpec, make_fleet
from repro.cluster.router import ClusterRouter
from repro.sim.engine import EventLoop
from repro.shard.messages import (
    Finalize,
    GroupOutcome,
    Ready,
    ShardWorkerError,
    StaticAssign,
    WindowAssign,
    WindowDone,
    WorkerFailure,
    WorkerResult,
)

__all__ = ["GroupConfig", "WorkerConfig", "GroupRuntime", "handle", "worker_main"]


@dataclass(frozen=True)
class GroupConfig:
    """Everything one logical group needs to stand up its shard.

    ``seed_seq`` is the group's spawned child of the plan's global
    ``SeedSequence`` — the same object for group ``g`` no matter which
    worker hosts it, which is half of the digest-invariance story (the
    other half being the group-local event loop).
    """

    group: int
    node_specs: tuple[NodeSpec, ...]
    balancer: str
    seed_seq: np.random.SeedSequence


@dataclass(frozen=True)
class WorkerConfig:
    """One worker process's share of the plan plus the shared inputs.

    ``trace``/``predictors``/``model_specs`` are big and read-only; the
    coordinator forks workers, so they arrive by copy-on-write page
    sharing, never through the pipe.  ``fail_at_window`` is a test hook
    of :func:`worker_main` only: the forked worker hard-exits
    (``os._exit``) at the start of that window, simulating a mid-replay
    process death for the crash-safety tests.
    """

    worker: int
    groups: tuple[GroupConfig, ...]
    trace: object
    predictors: object
    model_specs: dict
    slo: "dict | None" = None
    default_slo: "object | None" = None
    profile: "str | None" = None
    fail_at_window: "int | None" = None


class GroupRuntime:
    """One logical shard, live: loop + fleet + router + outcome ledger."""

    def __init__(self, cfg: GroupConfig, shared: WorkerConfig):
        self.group = cfg.group
        self.loop = EventLoop()
        fleet = make_fleet(
            list(cfg.node_specs),
            shared.predictors,
            shared.model_specs,
            loop=self.loop,
            slo=shared.slo,
            default_slo=shared.default_slo,
        )
        self.router = ClusterRouter(
            fleet, balancer=cfg.balancer, rng=np.random.default_rng(cfg.seed_seq)
        )
        self._requests = shared.trace.requests
        self._responses: list = []

    def feed(self, indices) -> None:
        """Inject assigned arrivals (trace indices, already time-ordered)."""
        requests = self._requests
        batch = [requests[i] for i in indices.tolist()]
        self._responses.extend(self.router.feed_requests(batch))

    def finalize(self) -> GroupOutcome:
        """Drain to completion and ship the outcome columns for the merge.

        The columns are ``outcome_tuple()`` field for field, in admission
        order, read with C-level getters: no per-request object is built.
        """
        self.router.run()
        pending = self.router.n_pending
        if pending:
            raise RuntimeError(
                f"group {self.group} drained with {pending} requests unresolved"
            )
        responses = self._responses
        launches = list(map(attrgetter("launch"), responses))
        columns = (
            list(map(attrgetter("request.request_id"), responses)),
            list(map(attrgetter("status"), responses)),
            list(map(attrgetter("node_name"), responses)),
            [None if launch is None else launch.device for launch in launches],
            [None if launch is None else launch.end_s for launch in launches],
            list(map(attrgetter("shed_reason"), responses)),
        )
        return GroupOutcome(
            self.group,
            columns,
            self.router.telemetry.snapshot(),
            self.loop.utilization(),
        )


def handle(worker: int, runtimes: "dict[int, GroupRuntime]", msg):
    """Apply one coordinator message to ``worker``'s groups.

    Returns the reply to send back — a :class:`WindowDone` for a
    :class:`WindowAssign`, a :class:`WorkerResult` for :class:`Finalize` —
    or None for a :class:`StaticAssign`, which needs no answer.
    """
    if isinstance(msg, Finalize):
        return WorkerResult(
            worker, tuple(rt.finalize() for rt in runtimes.values())
        )
    if not isinstance(msg, (StaticAssign, WindowAssign)):
        raise ShardWorkerError(
            f"shard worker {worker} got an unknown message {msg!r}"
        )
    for group, indices in msg.requests.items():
        runtimes[group].feed(indices)
    if isinstance(msg, StaticAssign):
        return None
    summaries = []
    for rt in runtimes.values():
        rt.loop.run(until=msg.until_s)   # advance to the window boundary
        summaries.append(rt.router.shard_summary(rt.group))
    return WindowDone(worker, msg.window, tuple(summaries))


def worker_main(conn, cfg: WorkerConfig) -> None:
    """Subprocess entry point: serve the coordinator until Finalize.

    Protocol: send :class:`Ready`, then pass every message to
    :func:`handle` and send back its reply, until the
    :class:`WorkerResult` that answers :class:`Finalize` has gone out.
    Any exception is reported as a :class:`WorkerFailure` before the
    process dies, so the coordinator can attach the traceback to its own
    error.
    """
    profiler = None
    if cfg.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    fail_at = math.inf if cfg.fail_at_window is None else cfg.fail_at_window
    try:
        runtimes = {g.group: GroupRuntime(g, cfg) for g in cfg.groups}
        conn.send(Ready(cfg.worker, tuple(runtimes)))
        reply = None
        while not isinstance(reply, WorkerResult):
            msg = conn.recv()
            if isinstance(msg, WindowAssign) and msg.window >= fail_at:
                os._exit(3)
            reply = handle(cfg.worker, runtimes, msg)
            if isinstance(reply, WorkerResult) and profiler is not None:
                profiler.disable()   # dump before the coordinator may reap us
                profiler.dump_stats(f"{cfg.profile}.shard{cfg.worker}")
            if reply is not None:
                conn.send(reply)
    except Exception:
        import traceback

        try:
            conn.send(WorkerFailure(cfg.worker, traceback.format_exc()))
        except Exception:
            pass
        raise
