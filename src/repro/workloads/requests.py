"""Classification requests and traces replayed through the serving frontend.

Traces serialize to JSON (:meth:`RequestTrace.to_json` / ``from_json``) so
a stream experiment can be replayed exactly across processes or shipped as
a benchmark artifact.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import asdict, dataclass
from itertools import repeat
from operator import attrgetter

import numpy as np

from repro.nn.builders import ModelSpec
from repro.rng import ensure_rng
from repro.workloads.streams import ArrivalProcess, _positive_int

__all__ = ["InferenceRequest", "RequestTrace", "make_trace"]


def _check_fields(request_id, arrival_s, batch, deadline_s, origin_arrival_s) -> None:
    """The one rule set a request obeys, however it is built.

    Comparisons are written so NaN fails them: every one is False.  A bool
    is an int, so it is refused by type before the integer bounds.
    """
    if (
        isinstance(request_id, bool)
        or not isinstance(request_id, (int, np.integer))
        or request_id < 0
    ):
        raise ValueError(
            f"request_id must be an integer >= 0, got {request_id!r}"
        )
    _positive_int("batch", batch)
    if not 0.0 <= arrival_s < math.inf:
        raise ValueError(f"arrival_s must be finite and >= 0, got {arrival_s}")
    if deadline_s is not None and not arrival_s < deadline_s < math.inf:
        raise ValueError(
            f"deadline_s {deadline_s} must be finite and fall after "
            f"arrival {arrival_s}"
        )
    if origin_arrival_s is not None and not (
        0.0 <= origin_arrival_s <= arrival_s
    ):
        raise ValueError(
            f"origin_arrival_s {origin_arrival_s} must be >= 0 and not "
            f"fall after re-enqueue arrival {arrival_s}"
        )


_FLOAT_TYPES = frozenset((float, np.float64, np.float32, np.float16))


def _is_int_type(t: type) -> bool:
    return t is int or issubclass(t, np.integer)


def _is_real_type(t: type) -> bool:
    # Types that convert to float64 exactly or by monotone rounding (ints),
    # so a converted comparison never passes where the scalar one fails.
    return t in _FLOAT_TYPES or _is_int_type(t)


def _columns_pass(request_ids, arrivals, batches, deadlines) -> bool:
    """True when every row is shown to pass :func:`_check_fields`.

    The same rules over whole columns, for speed.  It only ever proves
    rows valid: element types it does not know (bools, strings, ``None``
    outside deadlines), a failed conversion or a failing row make it
    answer False, and the caller then checks row by row.
    """
    deadline_types = set(map(type, deadlines)) - {type(None)}
    if not (
        all(map(_is_int_type, set(map(type, request_ids))))
        and all(map(_is_int_type, set(map(type, batches))))
        and all(map(_is_real_type, set(map(type, arrivals))))
        and all(map(_is_real_type, deadline_types))
    ):
        return False
    n = len(arrivals)
    try:
        ids = np.fromiter(request_ids, np.int64, n)
        sizes = np.fromiter(batches, np.int64, n)
        times = np.fromiter(arrivals, np.float64, n)
        if not (
            (ids >= 0).all()
            and (sizes > 0).all()
            and ((0.0 <= times) & (times < math.inf)).all()
        ):
            return False
        if not deadline_types:
            return True
        ends = np.asarray(deadlines, dtype=np.float64)
        bad = np.flatnonzero(~((times < ends) & (ends < math.inf)))
    except (TypeError, ValueError, OverflowError):
        return False
    # A None deadline reads as NaN above and fails the bounds; its row
    # still passes.
    return all(deadlines[i] is None for i in bad.tolist())


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
        _check_fields(
            self.request_id, self.arrival_s, self.batch, self.deadline_s,
            self.origin_arrival_s,
        )

    @staticmethod
    def from_columns(
        request_ids, arrivals, models, batches, policies, deadlines
    ) -> "tuple[InferenceRequest, ...]":
        """Build one request per row of six equal-length columns.

        The result equals ``InferenceRequest(*row)`` for every row, and the
        columns are accepted or refused exactly as those calls would
        accept or refuse them: a numpy gate checks each column once, and
        when it cannot show every row valid, each row goes through the
        constructor's own checks in order, so the first bad row raises
        the constructor's error.  Valid rows are stored straight into the
        slots (no follow-up requests: ``origin_arrival_s`` is None).
        """
        n = len(request_ids)
        columns = (request_ids, arrivals, models, batches, policies, deadlines)
        if any(len(column) != n for column in columns):
            raise ValueError(
                "request columns must have equal lengths, got "
                f"{[len(column) for column in columns]}"
            )
        if not _columns_pass(request_ids, arrivals, batches, deadlines):
            for row in zip(request_ids, arrivals, batches, deadlines):
                _check_fields(*row, None)
        requests = tuple(map(object.__new__, repeat(InferenceRequest, n)))
        for setter, column in zip(_SLOT_SETTERS, columns + (repeat(None, n),)):
            _drain(map(setter, requests, column))
        return requests

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


#: Slot writers in field order; a slot write skips the frozen ``__setattr__``.
_SLOT_SETTERS = tuple(
    getattr(InferenceRequest, name).__set__ for name in InferenceRequest.__slots__
)
_drain = deque(maxlen=0).extend


@dataclass(frozen=True)
class RequestTrace:
    """A time-ordered sequence of requests."""

    requests: tuple[InferenceRequest, ...]

    def __post_init__(self) -> None:
        times = np.fromiter(
            map(attrgetter("arrival_s"), self.requests), np.float64,
            len(self.requests),
        )
        if (times[1:] < times[:-1]).any():
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
    n = len(arrivals)
    times = [t for t, _ in arrivals]
    # One draw of n model indices leaves the generator where n single
    # draws would, with the same values.
    names = [spec.name for spec in specs]
    models = list(map(names.__getitem__, gen.integers(len(specs), size=n).tolist()))
    slo = getattr(process, "slo_s", None)
    requests = InferenceRequest.from_columns(
        request_ids=range(n),
        arrivals=times,
        models=models,
        batches=[batch for _, batch in arrivals],
        policies=[policy] * n,
        deadlines=[None] * n if slo is None else [t + slo for t in times],
    )
    return RequestTrace(requests=requests)
