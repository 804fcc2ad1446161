"""Per-device workers: coalesced batches onto command queues, on the loop.

A :class:`DeviceWorker` is the execution stage of the serving frontend:
it owns one device's :class:`~repro.ocl.queue.CommandQueue`, accepts
placed :class:`~repro.serving.coalescer.CoalescedBatch`es, launches them
(timing/energy always; real forward passes when every merged request
carries host samples), and schedules a completion callback on the event
loop at the launch's virtual end time.  Batches dispatch in arrival order
on the in-order queue, so the queue's clock running ahead of ``loop.now``
*is* the device backlog — the same quantity
:class:`~repro.sched.backlog.BacklogAwareScheduler` reads when placing.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from repro.ocl.event import Event
from repro.sched.backlog import BacklogDecision
from repro.sched.dispatcher import Dispatcher
from repro.serving.coalescer import CoalescedBatch
from repro.sim.engine import EventLoop

__all__ = ["DeviceWorker", "LaunchRecord"]


class LaunchRecord(NamedTuple):
    """One landed batch, shared by every handle it served (energy by share)."""

    device: str             # device-class value
    device_name: str
    gpu_state: str          # dGPU state probed at placement
    trigger: str            # what dispatched the batch
    batch_id: int           # completion order on its frontend
    size: int               # samples in the launch
    dispatched_s: float     # when the batch was formed
    start_s: float
    end_s: float
    energy_j: float         # the whole launch's energy


class DeviceWorker:
    """Serializes coalesced batches onto one device's command queue."""

    def __init__(
        self,
        loop: EventLoop,
        device_name: str,
        device_class: str,
        command_queue,
        dispatcher: Dispatcher,
        on_complete: "Callable[[CoalescedBatch, BacklogDecision, Event], None]",
    ):
        self.loop = loop
        self.device_name = device_name
        self.device_class = device_class
        self.command_queue = command_queue
        self.dispatcher = dispatcher
        self.on_complete = on_complete
        self.n_batches = 0
        self.n_requests = 0
        self.n_samples = 0
        self.n_aborted = 0
        self.busy_s = 0.0
        # Thermal throttle: a latency multiplier applied to every launch
        # while > 1.0 (fault injection's slowdown windows).  At exactly 1.0
        # the launch path is untouched, so fault-free runs stay
        # digit-identical.
        self.throttle = 1.0
        # Shared-bandwidth contention (partitioned accelerators): an
        # optional ``callable(now) -> multiplier >= 1`` evaluated at launch
        # time — the partition manager installs one per partition that
        # counts busy sibling partitions.  None (the default) leaves the
        # launch path untouched.
        self.contention = None
        # In-flight ledger: launch id -> (batch, completion handle).
        # Completion pops its entry; a crash aborts every entry and cancels
        # the pending completion callbacks, so aborted work can be
        # re-adopted elsewhere without ever completing twice.
        self._inflight: "dict[int, tuple]" = {}

    def backlog_s(self, now: float) -> float:
        """Seconds of already-dispatched work still ahead of ``now``."""
        return max(0.0, self.command_queue.current_time - now)

    @staticmethod
    def _merged_input(batch: CoalescedBatch) -> "np.ndarray | None":
        """One concatenated host array, iff every request carries samples."""
        arrays = [e.x for e in batch.entries]
        if any(a is None for a in arrays):
            return None
        return np.concatenate([np.asarray(a, dtype=np.float32) for a in arrays])

    def execute(self, batch: CoalescedBatch, decision: BacklogDecision) -> Event:
        """Launch one coalesced batch; completion fires on the event loop.

        The launch is enqueued immediately (the in-order command queue
        carries the backlog), and ``on_complete(batch, decision, event)``
        is scheduled at the event's virtual end time.
        """
        if decision.device_name != self.device_name:
            raise ValueError(
                f"batch placed on {decision.device_name!r} handed to worker "
                f"for {self.device_name!r}"
            )
        now = self.loop.now
        cq = self.command_queue
        if cq.current_time < now:
            cq.advance_to(now)
        kernel = self.dispatcher.kernel_for(self.device_name, batch.model)
        merged = self._merged_input(batch)
        if merged is not None:
            event = cq.enqueue_inference(kernel, merged)
        else:
            event = cq.enqueue_inference_virtual(kernel, batch.total_samples)

        stretch = self.throttle
        if self.contention is not None:
            stretch *= self.contention(now)
        if stretch != 1.0:
            # Thermal slowdown and/or sibling-partition contention: stretch
            # the compute window and hold the command-queue clock at the
            # stretched end, so both the event's observable latency and the
            # backlog the scheduler reads tell the same (slower) story.
            extra = (stretch - 1.0) * (event.time_ended - event.time_started)
            event.time_ended += extra
            cq.advance_to(event.time_ended)

        self.n_batches += 1
        self.n_requests += len(batch)
        self.n_samples += batch.total_samples
        self.busy_s += event.duration_s

        launch_id = self.n_batches
        handle = self.loop.schedule(
            event.time_ended,
            partial(self._fire_complete, launch_id, batch, decision, event),
            label="complete",
        )
        self._inflight[launch_id] = (batch, handle)
        return event

    def _fire_complete(
        self,
        launch_id: int,
        batch: CoalescedBatch,
        decision: BacklogDecision,
        event: Event,
        _loop=None,
    ) -> None:
        if self._inflight.pop(launch_id, None) is None:
            return  # aborted by a crash; the work was re-adopted elsewhere
        self.on_complete(batch, decision, event)

    def abort_in_flight(self) -> "list[CoalescedBatch]":
        """Abandon every launch that has not completed yet (node crash).

        Cancels the pending completion callbacks and empties the ledger;
        returns the aborted batches so the caller can put their requests
        back into play exactly once.
        """
        aborted = []
        for batch, handle in self._inflight.values():
            self.loop.cancel(handle)
            aborted.append(batch)
        self._inflight.clear()
        self.n_aborted += len(aborted)
        return aborted

    @property
    def in_flight(self) -> int:
        """Launched batches whose completion has not fired yet."""
        return len(self._inflight)

    def stats(self) -> dict:
        """Worker counters for the frontend's stats() rollup."""
        return {
            "batches": self.n_batches,
            "requests": self.n_requests,
            "samples": self.n_samples,
            "busy_s": self.busy_s,
        }
