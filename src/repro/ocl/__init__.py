"""OpenCL-style execution layer over the simulated testbed.

This subpackage mirrors the host-API structure the paper's implementation
uses (§IV): platforms expose devices, devices join contexts, command queues
execute kernels and transfers, buffers move (or map) data, and events carry
profiling timestamps.  Two things differ from a real OpenCL runtime:

* **Time is virtual.**  Every enqueue advances the queue's clock by the
  analytical cost model (:mod:`repro.hw.costmodel`) instead of waiting on
  hardware, so a 256K-sample Cifar-10 characterization point costs
  microseconds of host time to *simulate* while reporting the seconds it
  would take to *execute*.
* **Compute is optionally real.**  A launch given a host batch runs the
  actual numpy forward pass and produces correct classifications; a
  virtual launch (batch size only) gives characterization sweeps
  timing/energy without compute.  Timing is identical in both by
  construction.

The scheduler (:mod:`repro.sched`) talks only to this layer, which is what
makes it device-agnostic: anything that exposes the same Device interface
(an FPGA model, an NPU model) can be scheduled without code changes.
"""

from repro.ocl.buffer import Buffer, MapFlags, MemFlags
from repro.ocl.context import Context
from repro.ocl.device import Device, DeviceState
from repro.ocl.event import Event, EventStatus
from repro.ocl.kernels import InferenceKernel
from repro.ocl.platform import Platform, get_platforms
from repro.ocl.program import Program
from repro.ocl.queue import CommandQueue
from repro.ocl.workgroup import workgroup_efficiency

__all__ = [
    "Platform",
    "get_platforms",
    "Device",
    "DeviceState",
    "Context",
    "CommandQueue",
    "Buffer",
    "MemFlags",
    "MapFlags",
    "Event",
    "EventStatus",
    "Program",
    "InferenceKernel",
    "workgroup_efficiency",
]
