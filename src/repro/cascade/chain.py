"""Cascade chains: the per-request handle spanning every escalation hop.

A :class:`CascadeChain` is the cascade-level analogue of a serving
response: one submitted batch, however many stages its samples end up
visiting.  It resolves exactly once — when every sample has an answer
(possibly a forced or fallback one) or when stage 0 shed the whole batch.
:class:`CascadeResult` aggregates chains with the same outcome accessors
as ``ServingResult`` / ``ClusterResult`` (:class:`~repro.serving.outcomes.
Outcomes`), so cascade and single-model goodput compare on one axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SchedulerError
from repro.cascade.telemetry import CascadeTelemetry
from repro.serving.outcomes import Outcomes, meets_deadline

__all__ = ["CascadeChain", "CascadeResult"]


class CascadeChain:
    """Future-like handle for one batch served through a cascade.

    * ``origin_arrival_s`` / ``deadline_s`` — the chain's first arrival
      and its absolute SLO; every escalation inherits both.
    * ``exits`` — samples answered at each stage *of this chain*.
    * ``answer_stage`` — the deepest stage that answered any samples.
    * ``forced`` — deadline pressure made a remnant take an early answer.
    * ``fallback`` — an escalation was shed; the previous stage's answer
      stood for the remnant.
    """

    __slots__ = (
        "chain_id", "batch", "origin_arrival_s", "deadline_s", "policy",
        "status", "shed_reason", "end_s", "answer_stage", "exits",
        "forced", "fallback", "x", "last_end_s", "n_stages_run",
    )

    def __init__(
        self,
        chain_id: int,
        batch: int,
        origin_arrival_s: float,
        deadline_s: "float | None",
        policy: str = "throughput",
        x: "np.ndarray | None" = None,
    ):
        if batch <= 0:
            raise SchedulerError(f"chain batch must be positive, got {batch}")
        self.chain_id = chain_id
        self.batch = batch
        self.origin_arrival_s = float(origin_arrival_s)
        self.deadline_s = deadline_s
        self.policy = policy
        self.status = "pending"
        self.shed_reason: "str | None" = None
        self.end_s: "float | None" = None
        self.answer_stage: "int | None" = None
        self.exits: "dict[int, int]" = {}
        self.forced = False
        self.fallback = False
        self.x = x                    # current remnant's host samples
        self.last_end_s: "float | None" = None  # latest completed stage end
        self.n_stages_run = 0

    # -- state -------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.status != "pending"

    @property
    def served(self) -> bool:
        return self.status == "ok"

    @property
    def latency_s(self) -> float:
        """First arrival to last answer, across every stage (served only)."""
        if not self.served:
            raise SchedulerError(f"chain is {self.status}, has no latency")
        return self.end_s - self.origin_arrival_s

    @property
    def deadline_met(self) -> "bool | None":
        """Whether the chain's SLO held (None if best-effort or unserved)."""
        if not self.served:
            return None
        return meets_deadline(self.end_s, self.deadline_s)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CascadeChain(id={self.chain_id}, batch={self.batch}, "
            f"status={self.status!r}, answer_stage={self.answer_stage})"
        )


@dataclass
class CascadeResult(Outcomes):
    """Aggregate outcome of serving a trace through a cascade executor."""

    chains: "list[CascadeChain]" = field(default_factory=list)
    telemetry: CascadeTelemetry = field(default_factory=CascadeTelemetry)

    @property
    def outcomes(self) -> "list[CascadeChain]":
        return self.chains

    def exit_counts(self) -> "dict[int, int]":
        """Samples answered at each stage, over every chain."""
        out: "dict[int, int]" = {}
        for chain in self.chains:
            for stage, n in chain.exits.items():
                out[stage] = out.get(stage, 0) + n
        return dict(sorted(out.items()))
