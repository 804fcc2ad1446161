"""Dynamic batch coalescing: merge queued requests into bigger launches.

The §IV-C characterization (Fig. 3) shows every device's throughput rising
with batch size across the serving range, so a frontend should amortize
launches by merging queued requests — but not wait forever for a batch to
fill.  :class:`BatchCoalescer` implements the classic two-trigger rule:

* **full** — pending samples reach ``max_batch``: dispatch immediately;
* **timeout** — the oldest queued request has waited ``max_wait_s``:
  dispatch whatever is there.

Whichever fires first wins.  The coalescer is clock-agnostic: the caller
(the frontend, driven by the event loop) asks :meth:`ready` /
:meth:`next_flush_at` and calls :meth:`take` — which makes the merge logic
trivially testable under property-based random traces.  A batch's
``entries`` are the merged requests' own handles, as the queue held them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.checks import require_count, require_finite
from repro.serving.queues import RequestQueue

if TYPE_CHECKING:
    from repro.serving.frontend import ServingResponse

__all__ = ["CoalescedBatch", "BatchCoalescer"]

#: Tolerance for timer-vs-trigger float comparisons (an event scheduled at
#: exactly oldest+max_wait must count as having waited max_wait).
_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class CoalescedBatch:
    """One merged launch: a group of requests served as a single batch.

    ``total_samples`` (samples across all merged requests, the launch
    batch size) is counted once, at construction.
    """

    model: str
    entries: "tuple[ServingResponse, ...]"
    formed_s: float
    trigger: str               # 'full' | 'timeout' | 'flush'
    total_samples: int = field(init=False)

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("a coalesced batch needs at least one request")
        model = self.model
        samples = 0
        for entry in self.entries:
            request = entry.request
            if request.model != model:
                raise ValueError("coalesced batch mixes models")
            samples += request.batch
        object.__setattr__(self, "total_samples", samples)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def earliest_deadline_s(self) -> "float | None":
        """Tightest absolute deadline in the batch (None if none set)."""
        deadlines = [e.deadline_s for e in self.entries if e.deadline_s is not None]
        return min(deadlines) if deadlines else None

    @property
    def oldest_enqueued_s(self) -> float:
        return min(e.enqueued_s for e in self.entries)


class BatchCoalescer:
    """Two-trigger batch former over one model's request queue."""

    def __init__(self, queue: RequestQueue, max_batch: int, max_wait_s: float):
        require_count("max_batch", max_batch)
        require_finite("max_wait_s", max_wait_s, positive=False)
        self.queue = queue
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s

    @property
    def model(self) -> str:
        return self.queue.model

    @property
    def pending_samples(self) -> int:
        return self.queue.total_samples

    def ready(self, now: float) -> "str | None":
        """The trigger that has fired ('full' | 'timeout'), or None.

        'full' dominates: when both conditions hold the batch is dispatched
        as a full batch (the timeout is moot once max_batch is reached).
        """
        if not len(self.queue):
            return None
        if self.pending_samples >= self.max_batch:
            return "full"
        oldest = self.queue.oldest_enqueued_s()
        if now - oldest >= self.max_wait_s - _EPS:
            return "timeout"
        return None

    def next_flush_at(self) -> "float | None":
        """Virtual time when the timeout trigger will fire (None if empty)."""
        oldest = self.queue.oldest_enqueued_s()
        if oldest is None:
            return None
        return oldest + self.max_wait_s

    def take(self, now: float, trigger: str) -> CoalescedBatch:
        """Pop entries (queue discipline order) into one merged batch.

        Greedy up to ``max_batch`` samples (one
        :meth:`~repro.serving.queues.RequestQueue.pop_upto`); always takes
        at least one entry, so a single oversized request forms its own
        batch rather than starving.  Entries that would overflow stay
        queued (their original enqueue times keep anchoring the next
        timeout).
        """
        queue = self.queue
        if not len(queue):
            raise ValueError(f"nothing queued for {self.model!r}")
        return CoalescedBatch(
            model=queue.model,
            entries=tuple(queue.pop_upto(self.max_batch)),
            formed_s=now,
            trigger=trigger,
        )
