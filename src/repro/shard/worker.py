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

``worker_main`` is the subprocess entry point: a blocking receive loop
over the coordinator pipe.  :class:`GroupRuntime` holds the in-process
logic so the coordinator's inline mode (tests, property suites) can
drive the identical code without forking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.node import NodeSpec, make_fleet
from repro.cluster.router import ClusterRouter
from repro.sim.engine import EventLoop
from repro.shard.messages import (
    Finalize,
    GroupOutcome,
    Ready,
    StaticAssign,
    WindowAssign,
    WindowDone,
    WorkerFailure,
    WorkerResult,
    encode_outcomes,
)

__all__ = ["GroupConfig", "WorkerConfig", "GroupRuntime", "worker_main"]


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
    sharing, never through the pipe.  ``fail_at_window`` is a test hook:
    the worker hard-exits (``os._exit``) at the start of that window,
    simulating a mid-replay process death for the crash-safety tests.
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
        self.router.telemetry.attach_loop(self.loop)
        self._requests = shared.trace.requests
        self._responses: list = []

    def feed(self, indices) -> None:
        """Inject assigned arrivals (trace indices, already time-ordered)."""
        requests = self._requests
        batch = [requests[i] for i in indices.tolist()]
        self._responses.extend(self.router.feed_requests(batch))

    def run_window(self, until_s: float) -> None:
        """Advance this group's loop to the conservative boundary."""
        self.loop.run(until=until_s)

    def summary(self):
        return self.router.shard_summary(self.group)

    def finalize(self) -> GroupOutcome:
        """Drain to completion and pack outcomes for the merge."""
        self.router.run()
        pending = self.router.n_pending
        if pending:
            raise RuntimeError(
                f"group {self.group} drained with {pending} requests unresolved"
            )
        return encode_outcomes(
            self.group,
            self._responses,
            self.router.telemetry.snapshot(),
            self.loop.utilization(),
        )


def worker_main(conn, cfg: WorkerConfig) -> None:
    """Subprocess entry point: serve the coordinator until Finalize.

    Protocol: send :class:`Ready`, then handle :class:`StaticAssign` /
    :class:`WindowAssign` messages until :class:`Finalize` arrives, and
    answer it with a :class:`WorkerResult`.  Any exception is reported as
    a :class:`WorkerFailure` before the process dies, so the coordinator
    can attach the traceback to its own error.
    """
    profiler = None
    if cfg.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        runtimes = {g.group: GroupRuntime(g, cfg) for g in cfg.groups}
        conn.send(Ready(cfg.worker, tuple(runtimes)))
        while True:
            msg = conn.recv()
            if isinstance(msg, Finalize):
                outcomes = tuple(rt.finalize() for rt in runtimes.values())
                if profiler is not None:
                    profiler.disable()
                    profiler.dump_stats(f"{cfg.profile}.shard{cfg.worker}")
                conn.send(WorkerResult(cfg.worker, outcomes))
                return
            if isinstance(msg, StaticAssign):
                for group, indices in msg.requests.items():
                    runtimes[group].feed(indices)
                continue
            assert isinstance(msg, WindowAssign), msg
            if cfg.fail_at_window is not None and msg.window >= cfg.fail_at_window:
                import os

                os._exit(3)
            for group, indices in msg.requests.items():
                runtimes[group].feed(indices)
            summaries = []
            for rt in runtimes.values():
                rt.run_window(msg.until_s)
                summaries.append(rt.summary())
            conn.send(WindowDone(cfg.worker, msg.window, tuple(summaries)))
    except Exception:
        import traceback

        try:
            conn.send(WorkerFailure(cfg.worker, traceback.format_exc()))
        except Exception:
            pass
        raise
