"""Heap-based discrete-event loop.

The loop is the innermost frame of every serving/cluster simulation — a
6 kHz flood over a 4-node fleet pushes hundreds of thousands of events
through it — so the per-event cost is kept to a heap pop, one float
store, and the callback: events are plain tuples (no dataclass
``order=True`` comparator walking ``__gt__`` through field lists), and
``run()`` binds its hot names locally.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, NamedTuple

from repro.checks import require_count, require_finite
from repro.sim.clock import VirtualClock

__all__ = ["ScheduledEvent", "EventLoop", "TraceCursor", "check_arrival_order"]


class ScheduledEvent(NamedTuple):
    """A timestamped callback; ties break by insertion order (FIFO).

    A tuple subclass on purpose: heap siftup compares events as plain
    tuples, and ``seq`` is unique per loop, so ordering is decided by
    ``(time, seq)`` and the callable/label are never compared.
    """

    time: float
    seq: int
    action: Callable[["EventLoop"], Any]
    label: str = ""


class EventLoop:
    """Run callbacks in virtual-time order.

    Callbacks receive the loop and may schedule further events (at or
    after the current time).  ``run(until=...)`` drains the heap.
    """

    def __init__(self, start: float = 0.0):
        self.clock = VirtualClock(start)
        self._heap: list[ScheduledEvent] = []
        self._seq = 0
        self._processed = 0
        self._cancelled = 0
        # Utilization counters (see utilization()): how many run() calls
        # the loop saw, how many of them found nothing to fire, and how
        # many bounded runs fired nothing while live work waited beyond
        # the horizon — the signature of a shard stalled on its
        # conservative window rather than out of work.
        self._runs = 0
        self._idle_runs = 0
        self._window_stalls = 0
        # Lazy deletion: cancelled events keep their heap slot (an O(n)
        # heap repair per cancel would dominate timeout-heavy serving) and
        # are skipped — without advancing the clock — when popped.  The set
        # holds the seqs of live (scheduled, not yet fired) events, which
        # is also what makes cancel-after-fire detectable in O(1).
        self._live: set[int] = set()
        self._dead: set[int] = set()

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.clock.now

    @property
    def pending(self) -> int:
        """Events still queued (cancelled events no longer count)."""
        return len(self._live)

    @property
    def cancelled(self) -> int:
        """Events cancelled since construction."""
        return self._cancelled

    @property
    def processed(self) -> int:
        """Events processed since construction."""
        return self._processed

    @property
    def idle_runs(self) -> int:
        """run() calls that found nothing to fire."""
        return self._idle_runs

    @property
    def window_stalls(self) -> int:
        """Bounded runs that fired nothing while work waited past the horizon."""
        return self._window_stalls

    def utilization(self) -> dict:
        """Counters for observing how busy this loop actually is.

        A sharded replay drives many loops in lockstep windows; comparing
        their ``events_fired`` shows load imbalance, and ``window_stalls``
        counts windows a loop spent entirely blocked on the conservative
        horizon (all of its pending work lay beyond it) — pure
        synchronization overhead, the cost of the lookahead being smaller
        than that shard's natural event spacing.
        """
        return {
            "events_fired": self._processed,
            "runs": self._runs,
            "idle_runs": self._idle_runs,
            "window_stalls": self._window_stalls,
            "cancelled": self._cancelled,
            "pending": len(self._live),
        }

    def schedule(
        self, time: float, action: Callable[["EventLoop"], Any], label: str = ""
    ) -> ScheduledEvent:
        """Enqueue ``action`` to fire at virtual ``time`` (finite, >= now)."""
        if not self.clock.now <= time < math.inf:  # NaN fails it too
            _reject_time(time, self.clock.now)
        seq = self._seq
        self._seq = seq + 1
        ev = ScheduledEvent(time=float(time), seq=seq, action=action, label=label)
        heapq.heappush(self._heap, ev)
        self._live.add(seq)
        return ev

    def reserve_sequences(self, n: int) -> int:
        """Claim ``n`` consecutive sequence numbers; returns the first.

        A :class:`TraceCursor` fires one event per *run* of
        same-timestamp arrivals instead of one per arrival, but
        tie-breaking against independently scheduled events (fault
        campaigns, coalescer timers, heartbeats) must match one
        :meth:`schedule` call per arrival made at ingestion time.  The
        block is exactly the seqs those calls would have taken; firing
        each run under its first arrival's reserved seq makes the
        (time, seq) order of every event in the simulation identical to
        that per-arrival schedule.
        """
        require_count("n", n, low=0)
        start = self._seq
        self._seq = start + n
        return start

    def schedule_reserved(
        self,
        time: float,
        seq: int,
        action: Callable[["EventLoop"], Any],
        label: str = "",
    ) -> ScheduledEvent:
        """Enqueue ``action`` under a seq claimed via :meth:`reserve_sequences`."""
        if not self.clock.now <= time < math.inf:
            _reject_time(time, self.clock.now)
        if not 0 <= seq < self._seq:
            raise ValueError(f"seq {seq} was never reserved (next is {self._seq})")
        if seq in self._live or seq in self._dead:
            raise ValueError(f"seq {seq} is already scheduled")
        ev = ScheduledEvent(time=float(time), seq=seq, action=action, label=label)
        heapq.heappush(self._heap, ev)
        self._live.add(seq)
        return ev

    def due_now(self) -> bool:
        """Whether a live event is due at the current instant.

        When none is, an event scheduled now at ``now`` would be the very
        next to fire: its seq follows everything already queued.  The
        router uses this to run a lone arrival inside its route event
        instead of scheduling it.  Cancelled events at the heap top are
        dropped here, as :meth:`run` would drop them.
        """
        heap = self._heap
        dead = self._dead
        now = self.clock._now
        while heap and heap[0][0] <= now:
            seq = heap[0][1]
            if seq not in dead:
                return True
            heapq.heappop(heap)
            dead.discard(seq)
        return False

    def cancel(self, event: ScheduledEvent) -> bool:
        """Cancel a scheduled event; returns whether it was still pending.

        Lazy: the heap slot stays until its pop, where the event is
        discarded without firing (and without advancing the clock).
        Cancelling an event that already fired — or was already cancelled
        — is a no-op returning False, so callers may cancel timeouts and
        heartbeats unconditionally on completion.  Safe to call from
        inside a callback, including against events due at the current
        instant that have not yet popped.
        """
        seq = event.seq
        if seq not in self._live:
            return False
        self._live.discard(seq)
        self._dead.add(seq)
        self._cancelled += 1
        return True

    def schedule_after(
        self, delay: float, action: Callable[["EventLoop"], Any], label: str = ""
    ) -> ScheduledEvent:
        """Enqueue an action at now + delay."""
        if delay < 0.0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.schedule(self.clock.now + delay, action, label)

    def schedule_repeating(
        self,
        interval: float,
        action: Callable[["EventLoop"], Any],
        until: float,
        label: str = "",
    ) -> ScheduledEvent | None:
        """Fire ``action`` every ``interval`` seconds through ``until``.

        The first firing lands at ``now + interval``; each firing reschedules
        the next one while it would still land at or before ``until``, so the
        loop drains once the horizon passes (periodic actors — autoscalers,
        health checks — never keep a simulation alive forever).  Returns the
        first scheduled event, or None when the horizon is already too close.
        """
        # An infinite horizon would keep the actor (and the loop) alive.
        require_finite("interval", interval)
        if not math.isfinite(until):
            raise ValueError(f"until must be finite, got {until}")
        if until < self.clock.now:
            raise ValueError(
                f"until must be >= now: {until} < now={self.clock.now}"
            )

        def _fire(loop: "EventLoop") -> None:
            action(loop)
            nxt = loop.now + interval
            if nxt <= until:
                loop.schedule(nxt, _fire, label=label)

        first = self.clock.now + interval
        if first > until:
            return None
        return self.schedule(first, _fire, label=label)

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Process events in order; returns the final virtual time.

        ``until`` stops before events later than the horizon (they stay
        queued) and must be finite: an infinite one would leave the clock
        at infinity.  ``max_events`` bounds the number processed (runaway
        guard) and must be a count >= 0.
        """
        if until is not None:
            require_finite("until", until, positive=False)
        if max_events is not None:
            require_count("max_events", max_events, low=0)
        heap = self._heap
        clock = self.clock
        pop = heapq.heappop
        live = self._live
        dead = self._dead
        budget = float("inf") if max_events is None else max_events
        horizon = float("inf") if until is None else until
        processed_here = 0
        try:
            while heap and heap[0][0] <= horizon and processed_here < budget:
                time, seq, action, _label = pop(heap)
                if dead:
                    # Lazily drop cancelled events: no clock movement, no
                    # budget charge — as if they were never scheduled.
                    if seq in dead:
                        dead.discard(seq)
                        continue
                live.discard(seq)
                # Heap order plus schedule()'s no-past guard make the pop
                # sequence monotone, so the clock moves forward by direct
                # assignment (advance_to's check would re-prove that per
                # event).
                clock._now = time
                action(self)
                processed_here += 1
                # Same-timestamp run: every event at `time` is already
                # inside the horizon and needs no clock movement, so drain
                # the tie without re-testing the horizon or storing the
                # clock per event.  Pop order (and therefore every result)
                # is identical to the outer loop's.
                while heap and heap[0][0] == time and processed_here < budget:
                    _t, seq, action, _label = pop(heap)
                    if dead and seq in dead:
                        dead.discard(seq)
                        continue
                    live.discard(seq)
                    action(self)
                    processed_here += 1
        finally:
            self._processed += processed_here
            self._runs += 1
            if processed_here == 0:
                self._idle_runs += 1
                if until is not None and live:
                    self._window_stalls += 1
        if until is not None and clock.now < until and (
            not heap or heap[0][0] > until
        ):
            clock.advance_to(until)
        return clock.now


def _reject_time(time: float, now: float) -> None:
    """Raise the error for an event time :meth:`EventLoop.schedule` refuses."""
    if not math.isfinite(time):
        raise ValueError(f"time must be finite, got {time}")
    raise ValueError(f"cannot schedule into the past: {time} < now={now}")


def check_arrival_order(times, now: float) -> None:
    """Raise ``ValueError`` unless ``times`` can feed a :class:`TraceCursor`.

    The arrivals must be finite, non-decreasing and start at or after
    ``now``.  Trace ingestion calls this before it ledgers a single
    request, so an out-of-order input fails whole instead of dying
    half-replayed inside the event loop.  A NaN fails the order check
    itself: past one, every later comparison would be False and no
    disorder after it could show.
    """
    prev, inf = now, math.inf
    for i, t in enumerate(times):
        if not prev <= t < inf:
            if not math.isfinite(t):
                raise ValueError(f"arrival_s[{i}]={t} must be finite")
            before = f"arrival_s[{i - 1}]" if i else "now"
            raise ValueError(
                f"arrival_s[{i}]={t} precedes {before}={prev}: arrivals "
                "must be non-decreasing and at or after the loop's clock"
            )
        prev = t


class TraceCursor:
    """Walk a sorted timestamp array, firing one callback per *run*.

    Bulk-ingesting a million-request trace puts a million entries on the
    heap: every subsequent push/pop sifts through ~log2(1e6) ≈ 20 levels
    for the whole replay.  A cursor keeps the trace *off* the heap — one
    live event at a time — and hands each run of equal timestamps
    ``[i, j)`` to ``on_run(i, j)`` in a single call, which is what lets
    the serving layers batch admission probes and routing decisions
    across simultaneous arrivals.

    Equivalence with per-event scheduling is exact: the constructor
    reserves one sequence number per timestamp (the same block one
    :meth:`EventLoop.schedule` call per arrival would have consumed at
    the same moment) and each run fires under its first member's
    reserved seq, so every tie against independently scheduled events —
    injector campaigns armed before ingestion, timers armed mid-replay —
    resolves exactly as it would have for the first per-event arrival of
    that run.

    ``times`` must be non-decreasing and entirely at or after the loop's
    current time; callers check that with :func:`check_arrival_order`
    before they ledger anything.
    """

    __slots__ = ("_loop", "_times", "_on_run", "_label", "_block", "_i", "_n")

    def __init__(
        self,
        loop: EventLoop,
        times,
        on_run: Callable[[int, int], Any],
        label: str = "run",
    ):
        self._loop = loop
        self._times = times
        self._on_run = on_run
        self._label = label
        self._n = len(times)
        self._i = 0
        self._block = loop.reserve_sequences(self._n)

    @property
    def exhausted(self) -> bool:
        return self._i >= self._n

    def start(self) -> None:
        """Arm the cursor (no-op for an empty trace)."""
        if self._n:
            self._loop.schedule_reserved(
                self._times[0], self._block, self._fire, label=self._label
            )

    def _fire(self, loop: EventLoop) -> None:
        times = self._times
        i = self._i
        t = times[i]
        j = i + 1
        n = self._n
        while j < n and times[j] == t:
            j += 1
        self._i = j
        if j < n:
            # Inline schedule_reserved: the seq comes from this cursor's
            # own block and the times were order-checked at ingestion, so
            # its guards cannot fail here.
            seq = self._block + j
            event = ScheduledEvent(float(times[j]), seq, self._fire, self._label)
            heapq.heappush(loop._heap, event)
            loop._live.add(seq)
        self._on_run(i, j)
