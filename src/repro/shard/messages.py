"""Wire messages for the shard protocol (coordinator <-> workers).

Everything crossing a :class:`multiprocessing.Pipe` is defined here, and
everything is deliberately small: assignments carry *indices into the
shared trace* (the trace itself is inherited by fork, copy-on-write, so a
million requests never serialize), and outcomes come back as numpy
columns with interned string tables — a handful of arrays per group, not
a million python objects.

The per-group :class:`GroupOutcome` round-trips every field the
determinism digest hashes (see :mod:`repro.shard.digest`), so the
coordinator can merge worker results by request id and produce a digest
bit-identical to what a single-process replay computes over its own
responses: each row is one routed
:class:`~repro.serving.frontend.ServingResponse`'s ``outcome_tuple()``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.balancers import ShardSummary

__all__ = [
    "Ready",
    "StaticAssign",
    "WindowAssign",
    "WindowDone",
    "Finalize",
    "GroupOutcome",
    "WorkerResult",
    "WorkerFailure",
    "encode_outcomes",
]


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
    """One group's resolved outcomes as columns plus its telemetry.

    ``status``/``node``/``device``/``shed_reason`` are int32 codes into
    the matching tables (-1 encodes None); ``end_s`` uses NaN for None
    (a served request always has a finite completion time, so the
    encoding is lossless).
    """

    group: int
    request_id: np.ndarray
    status: np.ndarray
    node: np.ndarray
    device: np.ndarray
    end_s: np.ndarray
    shed_reason: np.ndarray
    status_table: tuple[str, ...]
    node_table: tuple[str, ...]
    device_table: tuple[str, ...]
    reason_table: tuple[str, ...]
    telemetry: dict
    utilization: dict

    def __len__(self) -> int:
        return int(self.request_id.size)

    def rows(self) -> "list[tuple]":
        """Decode back to outcome tuples (request order preserved)."""
        status_table = self.status_table
        node_table = self.node_table
        device_table = self.device_table
        reason_table = self.reason_table
        end_list = self.end_s.tolist()
        out = []
        for k, (rid, st, nd, dv, rs) in enumerate(
            zip(
                self.request_id.tolist(),
                self.status.tolist(),
                self.node.tolist(),
                self.device.tolist(),
                self.shed_reason.tolist(),
            )
        ):
            end = end_list[k]
            out.append((
                rid,
                status_table[st],
                node_table[nd] if nd >= 0 else None,
                device_table[dv] if dv >= 0 else None,
                None if end != end else end,   # NaN -> None
                reason_table[rs] if rs >= 0 else None,
            ))
        return out


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


def _intern(values: "list[str | None]") -> "tuple[np.ndarray, tuple[str, ...]]":
    table: list[str] = []
    index: dict[str, int] = {}
    codes = np.empty(len(values), dtype=np.int32)
    for i, value in enumerate(values):
        if value is None:
            codes[i] = -1
            continue
        code = index.get(value)
        if code is None:
            code = index[value] = len(table)
            table.append(value)
        codes[i] = code
    return codes, tuple(table)


def encode_outcomes(
    group: int, responses, telemetry: dict, utilization: dict
) -> GroupOutcome:
    """Pack resolved routed responses' outcome tuples into one block."""
    rids = np.empty(len(responses), dtype=np.int64)
    end_s = np.empty(len(responses), dtype=np.float64)
    statuses: "list[str | None]" = []
    nodes: "list[str | None]" = []
    devices: "list[str | None]" = []
    reasons: "list[str | None]" = []
    for i, response in enumerate(responses):
        rid, status, node, device, end, reason = response.outcome_tuple()
        rids[i] = rid
        end_s[i] = np.nan if end is None else end
        statuses.append(status)
        nodes.append(node)
        devices.append(device)
        reasons.append(reason)
    status_codes, status_table = _intern(statuses)
    node_codes, node_table = _intern(nodes)
    device_codes, device_table = _intern(devices)
    reason_codes, reason_table = _intern(reasons)
    return GroupOutcome(
        group=group,
        request_id=rids,
        status=status_codes,
        node=node_codes,
        device=device_codes,
        end_s=end_s,
        shed_reason=reason_codes,
        status_table=status_table,
        node_table=node_table,
        device_table=device_table,
        reason_table=reason_table,
        telemetry=telemetry,
        utilization=utilization,
    )
