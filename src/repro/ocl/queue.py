"""Command queues: where virtual time advances.

A :class:`CommandQueue` serializes commands on one device and keeps the
device's virtual clock.  Each enqueue returns a completed
:class:`~repro.ocl.event.Event` with profiling timestamps and an energy
breakdown — the queue is simultaneously the execution engine and the
power/latency instrumentation of §III-A1.

Inference launches account the paper's full pipeline (§II-A): input
staging (PCIe DMA or zero-copy map), per-layer kernel launches, compute at
the achieved occupancy (stretched by the dGPU clock ramp when cold), and
result transfer back.  :meth:`CommandQueue.enqueue_inference` takes a
host batch and also runs the real numpy forward pass, depositing class
scores in the output buffer; :meth:`CommandQueue.enqueue_inference_virtual`
takes only a batch size and runs no compute.  Timing is byte-for-byte
identical between the two, which is how large characterization sweeps
stay cheap.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DeviceError, KernelError
from repro.ocl.buffer import Buffer
from repro.ocl.context import Context
from repro.ocl.device import Device
from repro.ocl.event import Event
from repro.ocl.kernels import InferenceKernel
from repro.ocl.workgroup import workgroup_efficiency

__all__ = ["CommandQueue"]


class CommandQueue:
    """An in-order command queue bound to one device."""

    def __init__(self, context: Context, device: Device):
        if device not in context:
            raise DeviceError(f"device {device.name!r} is not in the context")
        self.context = context
        self.device = device
        self._now: float = 0.0
        self.events: list[Event] = []
        self._meters: list = []

    # -- instrumentation -----------------------------------------------------

    def attach_meter(self, meter) -> None:
        """Attach an :class:`~repro.telemetry.meters.EnergyMeter`.

        Every subsequent inference launch deposits its (start, end, mean
        watts) interval, reproducing the paper's live nvidia-smi/PCM
        sampling (§III-A1): ``meter.sample(t)`` then reads the draw at any
        virtual instant and ``meter.energy(a, b)`` integrates a window.
        """
        self._meters.append(meter)

    def _record_power(self, start: float, end: float, energy) -> None:
        if not self._meters or end <= start:
            return
        watts = energy.total_j / (end - start)
        for meter in self._meters:
            meter.record(start, end, watts)

    # -- virtual clock -----------------------------------------------------

    @property
    def current_time(self) -> float:
        """Virtual seconds since queue creation."""
        return self._now

    def advance_to(self, t: float) -> None:
        """Let virtual time pass with the queue idle (device may cool)."""
        if t < self._now:
            raise ValueError(f"cannot advance queue backwards: {t} < {self._now}")
        self._now = t

    def finish(self) -> float:
        """Block until all commands complete; returns the virtual time.

        Commands complete synchronously in this simulator, so this only
        returns the clock — it exists for API parity with real hosts.
        """
        return self._now

    # -- synchronization -----------------------------------------------------

    def _begin(self, wait_for: "list[Event] | None") -> None:
        """Honour an event wait-list: the next command may not start until
        every listed event has completed (cross-queue synchronization).

        Commands in this simulator complete at enqueue time, so waiting
        means advancing this queue's clock past the latest dependency.
        """
        if not wait_for:
            return
        for ev in wait_for:
            ev._require_complete()
        latest = max(ev.time_ended for ev in wait_for)
        if latest > self._now:
            self._now = latest

    def enqueue_marker(self, wait_for: "list[Event] | None" = None) -> Event:
        """A zero-cost event capturing 'everything up to here is done'
        (``clEnqueueMarkerWithWaitList``)."""
        self._begin(wait_for)
        event = Event("marker", time_queued=self._now)
        event.complete(self._now, self._now, self._now)
        self.events.append(event)
        return event

    def enqueue_barrier(self, wait_for: "list[Event] | None" = None) -> Event:
        """Block subsequent commands until the wait-list completes
        (``clEnqueueBarrierWithWaitList``).  In-order queues make this a
        marker with dependency semantics."""
        self._begin(wait_for)
        event = Event("barrier", time_queued=self._now)
        event.complete(self._now, self._now, self._now)
        self.events.append(event)
        return event

    # -- data movement --------------------------------------------------------

    def enqueue_write_buffer(
        self,
        buffer: Buffer,
        src: np.ndarray,
        wait_for: "list[Event] | None" = None,
    ) -> Event:
        """Host-to-device transfer (DMA for the dGPU, map+store otherwise)."""
        self._begin(wait_for)
        event = Event("write_buffer", time_queued=self._now)
        buffer.write_host(src)
        dt = self.device.cost_model.transfer.transfer_time(
            src.nbytes, pinned=buffer.pinned or self.device.spec.shares_host_memory
        )
        end = self._now + dt
        event.complete(self._now, self._now, end)
        self._now = end
        self.events.append(event)
        return event

    def enqueue_read_buffer(
        self, buffer: Buffer, wait_for: "list[Event] | None" = None
    ) -> tuple[np.ndarray, Event]:
        """Device-to-host transfer; returns (host copy, event)."""
        self._begin(wait_for)
        event = Event("read_buffer", time_queued=self._now)
        out = buffer.read_host()
        dt = self.device.cost_model.transfer.transfer_time(
            out.nbytes, pinned=buffer.pinned or self.device.spec.shares_host_memory
        )
        end = self._now + dt
        event.complete(self._now, self._now, end)
        self._now = end
        self.events.append(event)
        return out, event

    # -- kernel launch -----------------------------------------------------

    def enqueue_inference(
        self,
        kernel: InferenceKernel,
        x: np.ndarray,
        out_buffer: Buffer | None = None,
        local_size: int | None = None,
        pinned: bool = True,
        wait_for: "list[Event] | None" = None,
    ) -> Event:
        """Classify a batch: the full staged pipeline as one command.

        Parameters
        ----------
        kernel:
            A built inference kernel.
        x:
            Host batch of shape ``(N, *spec.input_shape)``.
        out_buffer:
            Optional buffer to receive the class scores.
        local_size:
            Work-group size override; ``None`` lets the runtime pick the
            device optimum (paper §IV-B: CPU 4096, GPU 256).
        pinned:
            Whether host staging buffers are page-locked.
        """
        self._begin(wait_for)
        spec = kernel.spec
        if x.shape[1:] != tuple(spec.input_shape):
            raise KernelError(
                f"kernel {kernel.name!r} expects samples of shape "
                f"{tuple(spec.input_shape)}, got {x.shape[1:]}"
            )
        batch = int(x.shape[0])
        if batch == 0:
            raise KernelError("cannot classify an empty batch")

        wg_eff = workgroup_efficiency(self.device.spec, local_size)
        event = Event(f"inference:{kernel.name}", time_queued=self._now)

        timing, energy = self.device.execute(
            spec, batch, now=self._now, workgroup_eff=wg_eff, pinned=pinned
        )

        scores = kernel.run(x)
        if out_buffer is not None:
            out_buffer.write_host(scores)
        event.meta["scores"] = scores

        started = self._now + timing.transfer_in_s + timing.launch_s
        ended = self._now + timing.total_s
        event.complete(self._now, started, ended, energy)
        event.meta["timing"] = timing
        event.meta["batch"] = batch
        event.meta["bytes"] = batch * spec.sample_bytes
        self._record_power(event.time_queued, ended, energy)
        self._now = ended
        self.events.append(event)
        return event

    def enqueue_inference_virtual(
        self,
        kernel: InferenceKernel,
        batch: int,
        local_size: int | None = None,
        pinned: bool = True,
        wait_for: "list[Event] | None" = None,
    ) -> Event:
        """Timing-only launch: account a batch without host sample data.

        Streaming experiments route thousands of requests whose *contents*
        are irrelevant to the scheduling claims; this avoids materializing
        multi-gigabyte batches while producing timing/energy identical to
        :meth:`enqueue_inference`.
        """
        self._begin(wait_for)
        if batch <= 0:
            raise KernelError(f"batch must be positive, got {batch}")
        spec = kernel.spec
        wg_eff = workgroup_efficiency(self.device.spec, local_size)
        event = Event(f"inference:{kernel.name}", time_queued=self._now)
        timing, energy = self.device.execute(
            spec, batch, now=self._now, workgroup_eff=wg_eff, pinned=pinned
        )
        started = self._now + timing.transfer_in_s + timing.launch_s
        ended = self._now + timing.total_s
        event.complete(self._now, started, ended, energy)
        event.meta["timing"] = timing
        event.meta["batch"] = batch
        event.meta["bytes"] = batch * spec.sample_bytes
        self._record_power(event.time_queued, ended, energy)
        self._now = ended
        self.events.append(event)
        return event

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CommandQueue(device={self.device.name!r}, t={self._now:.6f}s, "
            f"events={len(self.events)})"
        )
