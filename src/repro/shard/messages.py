"""Wire messages for the shard protocol (coordinator <-> workers).

Everything crossing a :class:`multiprocessing.Pipe` is defined here, and
everything is deliberately small: assignments carry *indices into the
shared trace* (the trace itself is inherited by fork, copy-on-write, so a
million requests never serialize), and outcomes come back as six plain
columns per group — the fields of each routed
:class:`~repro.serving.frontend.ServingResponse`'s ``outcome_tuple()``
(see :mod:`repro.shard.digest`), one list per field.  Columns of strings,
ints and floats allocate no per-request tuple on the worker and pickle
smaller than rows; the coordinator zips them back into rows and merges
them by request id into a digest bit-identical to a single-process
replay's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.balancers import ShardSummary
from repro.errors import SchedulerError

__all__ = [
    "ShardWorkerError",
    "Ready",
    "StaticAssign",
    "WindowAssign",
    "WindowDone",
    "Finalize",
    "GroupOutcome",
    "WorkerResult",
    "WorkerFailure",
]


class ShardWorkerError(SchedulerError):
    """A shard worker died, errored, went silent or broke the protocol."""


@dataclass(frozen=True)
class Ready:
    """Worker finished building its fleets and is waiting for traffic."""

    worker: int
    groups: tuple[int, ...]


@dataclass(frozen=True)
class StaticAssign:
    """Entire-trace assignment for static front tiers (no windows).

    ``requests`` maps each of the worker's groups to the trace indices it
    serves, in trace order.  The worker feeds everything upfront and runs
    to completion at :class:`Finalize` — zero synchronization, which is
    what makes a single-group static replay bit-identical to the
    monolithic ``serve_trace``.
    """

    requests: "dict[int, np.ndarray]"


@dataclass(frozen=True)
class WindowAssign:
    """One conservative window's arrivals for this worker's groups.

    The worker injects each group's requests (arrivals all within
    ``[until_s - lookahead, until_s)``), advances every group's loop to
    ``until_s`` inclusive, and replies with a :class:`WindowDone`.
    """

    window: int
    until_s: float
    requests: "dict[int, np.ndarray]"


@dataclass(frozen=True)
class WindowDone:
    """Worker reached the window boundary; summaries taken at it."""

    worker: int
    window: int
    summaries: tuple[ShardSummary, ...]


@dataclass(frozen=True)
class Finalize:
    """No more arrivals: drain every group's loop and send the result."""


@dataclass(frozen=True)
class GroupOutcome:
    """One group's resolved outcomes plus its telemetry.

    ``columns`` holds six lists — request_id, status, node, device,
    end_s, shed_reason — in the order the group admitted its requests:
    ``zip(*columns)`` yields each routed response's ``outcome_tuple()``,
    exactly the rows the digest hashes.  ``utilization`` is the group's
    :meth:`~repro.sim.engine.EventLoop.utilization`.
    """

    group: int
    columns: "tuple[list, ...]"
    telemetry: dict
    utilization: dict


@dataclass(frozen=True)
class WorkerResult:
    """Final message of a healthy worker: one outcome block per group."""

    worker: int
    outcomes: tuple[GroupOutcome, ...]


@dataclass(frozen=True)
class WorkerFailure:
    """A worker hit an exception; ``detail`` carries its traceback."""

    worker: int
    detail: str
