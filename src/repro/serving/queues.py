"""Per-model request queues with deadlines: FIFO and earliest-deadline-first.

The serving frontend holds one bounded queue per deployed model.  A queue
stores the requests' own :class:`~repro.serving.frontend.ServingResponse`
handles, whose ``(enqueued_s, seq)`` the frontend stamps only while they
are off every queue; the discipline decides *pop order only* — admission
bounds length, the coalescer decides *when* to pop, and the deadline
timer is always anchored at the oldest enqueue time regardless of
discipline.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING

from repro.checks import require_count
from repro.errors import SchedulerError

if TYPE_CHECKING:
    from repro.serving.frontend import ServingResponse

__all__ = ["RequestQueue", "FIFOQueue", "EDFQueue", "make_queue"]


class RequestQueue:
    """Bounded per-model queue; subclasses fix the pop discipline."""

    discipline = "abstract"

    def __init__(self, model: str, capacity: "int | None" = None):
        if capacity is not None:
            require_count("capacity", capacity)
        self.model = model
        self.capacity = capacity
        # O(1) load accounting: the frontend reads total_samples and
        # oldest_enqueued_s once per routing probe / timer arm, so neither
        # may walk the queue.  The arrival heap is lazy: a dequeued entry's
        # (enqueued_s, seq) key leaves at once when it is the top, and is
        # otherwise marked removed and cleaned off the top on read.
        self._total_samples = 0
        self._arrival_heap: "list[tuple[float, int]]" = []
        self._arrival_removed: "dict[tuple[float, int], int]" = {}

    # -- discipline hooks (subclass responsibility) ------------------------

    def _append(self, entry: ServingResponse) -> None:
        raise NotImplementedError

    def _extend(self, entries: "list[ServingResponse]") -> None:
        for entry in entries:
            self._append(entry)

    def _popleft(self) -> ServingResponse:
        raise NotImplementedError

    def _pop_upto(self, max_samples: int) -> "tuple[list[ServingResponse], int]":
        """Greedy discipline-order take; returns the entries and samples."""
        taken = [self._popleft()]
        samples = taken[0].request.batch
        while samples < max_samples and len(self):
            batch = self._peek().request.batch
            if samples + batch > max_samples:
                break
            taken.append(self._popleft())
            samples += batch
        return taken, samples

    def _peek(self) -> ServingResponse:
        raise NotImplementedError

    def _remove(self, request_id: int) -> "ServingResponse | None":
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __iter__(self):
        raise NotImplementedError

    # -- shared API --------------------------------------------------------

    @property
    def full(self) -> bool:
        """Whether another push would exceed capacity."""
        return self.capacity is not None and len(self) >= self.capacity

    def push(self, entry: ServingResponse) -> None:
        """Enqueue; raises :class:`SchedulerError` when at capacity.

        Admission control checks :attr:`full` *before* pushing — a raise
        here means the frontend wiring is wrong, not that load is high.
        """
        if self.full:
            raise SchedulerError(
                f"queue for {self.model!r} is at capacity ({self.capacity})"
            )
        self._append(entry)
        self._total_samples += entry.batch
        heapq.heappush(self._arrival_heap, (entry.enqueued_s, entry.seq))

    def push_many(self, entries: "list[ServingResponse]") -> None:
        """Enqueue ``entries`` in order, as one :meth:`push` each would.

        The capacity check covers the whole list before anything moves,
        so a list that would overflow raises with the queue unchanged.
        """
        if self.capacity is not None and len(self) + len(entries) > self.capacity:
            raise SchedulerError(
                f"queue for {self.model!r} cannot take {len(entries)} more "
                f"entries (capacity {self.capacity})"
            )
        self._extend(entries)
        heap = self._arrival_heap
        samples = 0
        for entry in entries:
            samples += entry.request.batch
            heapq.heappush(heap, (entry.enqueued_s, entry.seq))
        self._total_samples += samples

    def pop(self) -> ServingResponse:
        """Dequeue the next entry under this queue's discipline."""
        if not len(self):
            raise SchedulerError(f"queue for {self.model!r} is empty")
        entry = self._popleft()
        self._total_samples -= entry.batch
        self._forget_arrival(entry)
        return entry

    def pop_upto(self, max_samples: int) -> "list[ServingResponse]":
        """Pop entries in discipline order while they fit ``max_samples``.

        Equal to calling :meth:`pop` until the next entry would overflow
        ``max_samples`` or the popped samples reach it.  The first entry
        is always taken, so one oversized request still leaves the queue.
        """
        if not len(self):
            raise SchedulerError(f"queue for {self.model!r} is empty")
        entries, samples = self._pop_upto(max_samples)
        self._total_samples -= samples
        forget = self._forget_arrival
        for entry in entries:
            forget(entry)
        return entries

    def peek(self) -> ServingResponse:
        """The entry :meth:`pop` would return, without removing it."""
        if not len(self):
            raise SchedulerError(f"queue for {self.model!r} is empty")
        return self._peek()

    def remove(self, request_id: int) -> "ServingResponse | None":
        """Remove one entry out of discipline order (None when absent).

        The rescue path for timeouts and device dropouts: a request that
        is still *queued* can be pulled back and retried elsewhere without
        any risk of double execution.  O(n) per call — fault handling is
        rare by construction, so the hot push/pop counters stay O(1) and
        pay nothing for this capability.
        """
        entry = self._remove(request_id)
        if entry is None:
            return None
        self._total_samples -= entry.batch
        self._forget_arrival(entry)
        return entry

    def _forget_arrival(self, entry: ServingResponse) -> None:
        """Drop a dequeued entry's key from the arrival heap.

        At the top (the usual case: FIFO pops in arrival order) the key
        is popped at once; anywhere else it is marked removed and
        dropped lazily when it reaches the top.
        """
        key = (entry.enqueued_s, entry.seq)
        heap = self._arrival_heap
        if heap[0] == key:
            heapq.heappop(heap)
        else:
            removed = self._arrival_removed
            removed[key] = removed.get(key, 0) + 1

    @property
    def total_samples(self) -> int:
        """Samples summed over all queued requests (O(1) counter)."""
        return self._total_samples

    def oldest_enqueued_s(self) -> "float | None":
        """Earliest enqueue time among waiting entries (None if empty).

        This anchors the coalescer's max-wait timer: even under EDF pop
        order, no request may wait longer than max_wait.  Amortized O(1):
        the lazy arrival heap's top is exact once popped keys are drained.
        """
        if not len(self):
            return None
        heap, removed = self._arrival_heap, self._arrival_removed
        while heap:
            count = removed.get(heap[0], 0)
            if not count:
                break
            if count == 1:
                del removed[heap[0]]
            else:
                removed[heap[0]] = count - 1
            heapq.heappop(heap)
        return heap[0][0]


class FIFOQueue(RequestQueue):
    """Arrival-order queue — the throughput-friendly default."""

    discipline = "fifo"

    def __init__(self, model: str, capacity: "int | None" = None):
        super().__init__(model, capacity)
        self._entries: deque[ServingResponse] = deque()

    def _append(self, entry: ServingResponse) -> None:
        self._entries.append(entry)

    def _extend(self, entries: "list[ServingResponse]") -> None:
        self._entries.extend(entries)

    def _popleft(self) -> ServingResponse:
        return self._entries.popleft()

    def _pop_upto(self, max_samples: int) -> "tuple[list[ServingResponse], int]":
        # The base class's take, on the deque directly.
        queued = self._entries
        taken = [queued.popleft()]
        samples = taken[0].request.batch
        while samples < max_samples and queued:
            batch = queued[0].request.batch
            if samples + batch > max_samples:
                break
            taken.append(queued.popleft())
            samples += batch
        return taken, samples

    def _peek(self) -> ServingResponse:
        return self._entries[0]

    def _remove(self, request_id: int) -> "ServingResponse | None":
        for i, entry in enumerate(self._entries):
            if entry.request.request_id == request_id:
                del self._entries[i]
                return entry
        return None

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)


class EDFQueue(RequestQueue):
    """Earliest-deadline-first queue; deadline-less entries rank last.

    Ties (equal deadlines, and all best-effort traffic) break by
    submission order, so EDF over a deadline-free stream degrades to FIFO.
    """

    discipline = "edf"

    def __init__(self, model: str, capacity: "int | None" = None):
        super().__init__(model, capacity)
        self._heap: list[tuple[float, int, ServingResponse]] = []
        self._sorted_view: "list[tuple[float, int, ServingResponse]] | None" = None

    @staticmethod
    def _key(entry: ServingResponse) -> tuple[float, int]:
        deadline = entry.deadline_s if entry.deadline_s is not None else float("inf")
        return (deadline, entry.seq)

    def _append(self, entry: ServingResponse) -> None:
        heapq.heappush(self._heap, (*self._key(entry), entry))
        self._sorted_view = None

    def _popleft(self) -> ServingResponse:
        self._sorted_view = None
        return heapq.heappop(self._heap)[2]

    def _peek(self) -> ServingResponse:
        return self._heap[0][2]

    def _remove(self, request_id: int) -> "ServingResponse | None":
        heap = self._heap
        for i, (_, _, entry) in enumerate(heap):
            if entry.request.request_id == request_id:
                heap[i] = heap[-1]
                heap.pop()
                if i < len(heap):
                    heapq.heapify(heap)
                self._sorted_view = None
                return entry
        return None

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self):
        # Deadline-order traversal over a sorted view that is computed once
        # and reused until the next push/pop (iterating a heap copy used to
        # cost a full sort per call, on every stats read).
        if self._sorted_view is None:
            self._sorted_view = sorted(self._heap, key=lambda t: t[:2])
        return (entry for _, _, entry in self._sorted_view)


_DISCIPLINES = {"fifo": FIFOQueue, "edf": EDFQueue}


def make_queue(
    discipline: str, model: str, capacity: "int | None" = None
) -> RequestQueue:
    """Build a queue by discipline name ('fifo' | 'edf')."""
    try:
        cls = _DISCIPLINES[discipline]
    except KeyError:
        known = ", ".join(sorted(_DISCIPLINES))
        raise ValueError(
            f"unknown queue discipline {discipline!r}; known: {known}"
        ) from None
    return cls(model, capacity)
