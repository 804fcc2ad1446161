"""Classification requests and traces replayed through the serving frontend.

Traces serialize to JSON (:meth:`RequestTrace.to_json` / ``from_json``) so
a stream experiment can be replayed exactly across processes or shipped as
a benchmark artifact.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from repro.nn.builders import ModelSpec
from repro.rng import ensure_rng
from repro.workloads.streams import ArrivalProcess

__all__ = ["InferenceRequest", "RequestTrace", "make_trace"]


@dataclass(frozen=True, slots=True)
class InferenceRequest:
    """One unit of schedulable work: a batch for one deployed model.

    ``origin_arrival_s`` marks a *follow-up* request: work re-enqueued on
    behalf of an earlier request (a cascade escalation).  It carries the
    chain's first arrival time so end-to-end latency keeps counting from
    the moment the original request entered the system, while
    ``deadline_s`` stays the original *absolute* SLO — a follow-up never
    gets a reset deadline.
    """

    request_id: int
    arrival_s: float
    model: str
    batch: int
    policy: str = "throughput"
    deadline_s: "float | None" = None     # absolute completion deadline (SLO)
    origin_arrival_s: "float | None" = None   # chain's first arrival (follow-ups)

    def __post_init__(self) -> None:
        # Comparisons are written so NaN fails them: every one is False.
        # A bool is an int: True is refused by identity, False by the bound.
        batch = self.batch
        if not isinstance(batch, (int, np.integer)) or batch is True or batch <= 0:
            raise ValueError(f"batch must be a positive integer, got {batch!r}")
        if not 0.0 <= self.arrival_s < math.inf:
            raise ValueError(
                f"arrival_s must be finite and >= 0, got {self.arrival_s}"
            )
        if self.deadline_s is not None and not (
            self.arrival_s < self.deadline_s < math.inf
        ):
            raise ValueError(
                f"deadline_s {self.deadline_s} must be finite and fall after "
                f"arrival {self.arrival_s}"
            )
        if self.origin_arrival_s is not None and not (
            0.0 <= self.origin_arrival_s <= self.arrival_s
        ):
            raise ValueError(
                f"origin_arrival_s {self.origin_arrival_s} must be >= 0 and not "
                f"fall after re-enqueue arrival {self.arrival_s}"
            )

    @property
    def effective_arrival_s(self) -> float:
        """The arrival that end-to-end latency counts from.

        The original arrival for follow-up (escalated) requests, this
        request's own arrival otherwise.
        """
        return (
            self.origin_arrival_s
            if self.origin_arrival_s is not None
            else self.arrival_s
        )

    @property
    def slack_s(self) -> "float | None":
        """Time budget from arrival to deadline (None without an SLO)."""
        if self.deadline_s is None:
            return None
        return self.deadline_s - self.arrival_s


@dataclass(frozen=True)
class RequestTrace:
    """A time-ordered sequence of requests."""

    requests: tuple[InferenceRequest, ...]

    def __post_init__(self) -> None:
        times = [r.arrival_s for r in self.requests]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("requests must be time-ordered")

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    @property
    def horizon_s(self) -> float:
        """Arrival time of the last request (0 for an empty trace)."""
        return self.requests[-1].arrival_s if self.requests else 0.0

    @property
    def total_samples(self) -> int:
        """Samples summed over all requests."""
        return sum(r.batch for r in self.requests)

    # -- persistence -----------------------------------------------------

    def to_json(self) -> str:
        """Serialize the trace (order and fields preserved exactly)."""
        return json.dumps([asdict(r) for r in self.requests])

    @classmethod
    def from_json(cls, text: str) -> "RequestTrace":
        """Rebuild a trace serialized by :meth:`to_json` (validating)."""
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid trace JSON: {exc}") from exc
        if not isinstance(rows, list):
            raise ValueError("trace JSON must be a list of requests")
        try:
            requests = tuple(InferenceRequest(**row) for row in rows)
        except TypeError as exc:
            raise ValueError(f"malformed request record: {exc}") from exc
        return cls(requests=requests)

    def save(self, path) -> None:
        """Write the trace as JSON to a file path."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "RequestTrace":
        """Read a trace written by save()."""
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def make_trace(
    process: ArrivalProcess,
    specs: "list[ModelSpec]",
    policy: str = "throughput",
    rng: "int | np.random.Generator | None" = None,
) -> RequestTrace:
    """Instantiate an arrival process into requests over the given models.

    Each arrival picks its model uniformly — the mixed-application setting
    the scheduler targets (§V: models with "strong diversity").  When the
    process carries an SLO (``process.slo_s``), every request gets a
    deadline ``slo_s`` after its arrival.
    """
    if not specs:
        raise ValueError("make_trace needs at least one model spec")
    gen = ensure_rng(rng)
    arrivals = process.generate(gen)
    slo = getattr(process, "slo_s", None)
    requests = tuple(
        InferenceRequest(
            request_id=i,
            arrival_s=t,
            model=specs[int(gen.integers(len(specs)))].name,
            batch=batch,
            policy=policy,
            deadline_s=None if slo is None else t + slo,
        )
        for i, (t, batch) in enumerate(arrivals)
    )
    return RequestTrace(requests=requests)
