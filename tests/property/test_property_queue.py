"""Stateful property tests: random command sequences against a queue.

A hypothesis state machine drives arbitrary interleavings of launches,
transfers, markers, idle gaps and meter polls, holding the queue to its
core invariants: monotone virtual time, ordered + consistent events,
bounded power, and device clock sanity.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.ocl.context import Context
from repro.ocl.kernels import InferenceKernel
from repro.ocl.platform import get_all_devices
from repro.ocl.queue import CommandQueue
from repro.telemetry.meters import EnergyMeter

KERNELS = {spec.name: InferenceKernel(spec) for spec in (SIMPLE, MNIST_SMALL)}


class QueueMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.ctx = Context(get_all_devices())
        self.queues = {
            name: CommandQueue(self.ctx, self.ctx.get_device(name))
            for name in ("cpu", "igpu", "dgpu")
        }
        self.meters = {}
        for name, queue in self.queues.items():
            meter = EnergyMeter(name, idle_watts=queue.device.spec.idle_watts)
            queue.attach_meter(meter)
            self.meters[name] = meter
        self.last_event = None

    # -- rules ----------------------------------------------------------

    @rule(
        device=st.sampled_from(["cpu", "igpu", "dgpu"]),
        model=st.sampled_from(list(KERNELS)),
        batch=st.integers(1, 1 << 15),
    )
    def launch(self, device, model, batch):
        ev = self.queues[device].enqueue_inference_virtual(KERNELS[model], batch)
        self.last_event = ev

    @rule(device=st.sampled_from(["cpu", "igpu", "dgpu"]),
          gap=st.floats(0.0, 5.0, allow_nan=False))
    def idle_gap(self, device, gap):
        q = self.queues[device]
        q.advance_to(q.current_time + gap)

    @rule(device=st.sampled_from(["cpu", "igpu", "dgpu"]))
    def marker(self, device):
        self.queues[device].enqueue_marker()

    @rule(device=st.sampled_from(["cpu", "igpu", "dgpu"]))
    def dependent_launch(self, device):
        if self.last_event is None:
            return
        ev = self.queues[device].enqueue_inference_virtual(
            KERNELS["simple"], 64, wait_for=[self.last_event]
        )
        assert ev.time_queued >= self.last_event.time_ended
        self.last_event = ev

    @rule(
        device=st.sampled_from(["cpu", "igpu", "dgpu"]),
        nbytes=st.integers(1, 1 << 20),
    )
    def transfer(self, device, nbytes):
        from repro.ocl.buffer import Buffer

        buf = Buffer(self.ctx, nbytes=nbytes)
        self.queues[device].enqueue_write_buffer(
            buf, np.zeros(nbytes, dtype=np.uint8)
        )

    # -- invariants ------------------------------------------------------

    @invariant()
    def events_are_time_ordered(self):
        for queue in self.queues.values():
            ends = [e.time_ended for e in queue.events]
            assert ends == sorted(ends)
            assert all(e.time_queued <= e.time_ended for e in queue.events)

    @invariant()
    def clock_never_behind_last_event(self):
        for queue in self.queues.values():
            if queue.events:
                assert queue.current_time >= queue.events[-1].time_ended - 1e-12

    @invariant()
    def inference_energy_positive_and_power_bounded(self):
        for name, queue in self.queues.items():
            dev = queue.device.spec
            ceiling = dev.busy_watts + dev.host_assist_watts + 1e-9
            for e in queue.events:
                if e.energy is None:
                    continue
                assert e.energy.total_j > 0
                assert e.energy.avg_watts <= ceiling

    @invariant()
    def device_clock_fraction_valid(self):
        for queue in self.queues.values():
            assert 0.0 < queue.device.clock_state.clock_frac <= 1.0


TestQueueMachine = QueueMachine.TestCase
TestQueueMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
