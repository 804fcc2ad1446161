"""Live power metering through command queues (§III-A1 instrumentation)."""

import numpy as np
import pytest

from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.ocl.context import Context
from repro.ocl.kernels import InferenceKernel
from repro.ocl.platform import get_all_devices
from repro.ocl.queue import CommandQueue
from repro.telemetry.meters import EnergyMeter


@pytest.fixture()
def ctx():
    return Context(get_all_devices())


class TestMetering:
    def test_meter_sees_launch_interval(self, ctx):
        queue = CommandQueue(ctx, ctx.get_device("dgpu"))
        meter = EnergyMeter("gtx-1080ti", idle_watts=55.0)
        queue.attach_meter(meter)
        ev = queue.enqueue_inference_virtual(InferenceKernel(MNIST_SMALL), 4096)
        mid = 0.5 * (ev.time_queued + ev.time_ended)
        assert meter.sample(mid) > 55.0
        assert meter.sample(ev.time_ended + 1.0) == 55.0

    def test_window_energy_matches_event_energy(self, ctx):
        queue = CommandQueue(ctx, ctx.get_device("igpu"))
        meter = EnergyMeter("uhd-630", idle_watts=0.0)
        queue.attach_meter(meter)
        ev = queue.enqueue_inference_virtual(InferenceKernel(MNIST_SMALL), 1024)
        assert meter.energy(ev.time_queued, ev.time_ended) == pytest.approx(
            ev.energy.total_j, rel=1e-9
        )

    def test_consecutive_launches_non_overlapping(self, ctx):
        queue = CommandQueue(ctx, ctx.get_device("cpu"))
        meter = EnergyMeter("i7-8700", idle_watts=8.0)
        queue.attach_meter(meter)
        k = InferenceKernel(SIMPLE)
        for _ in range(5):
            queue.enqueue_inference_virtual(k, 1024)
        assert meter.n_samples == 5  # record() rejects overlaps, so 5 proves it

    def test_multiple_meters(self, ctx):
        queue = CommandQueue(ctx, ctx.get_device("cpu"))
        a = EnergyMeter("a")
        b = EnergyMeter("b")
        queue.attach_meter(a)
        queue.attach_meter(b)
        queue.enqueue_inference_virtual(InferenceKernel(SIMPLE), 64)
        assert a.n_samples == b.n_samples == 1

    def test_real_execution_also_metered(self, ctx, rng):
        queue = CommandQueue(ctx, ctx.get_device("cpu"))
        meter = EnergyMeter("i7-8700")
        queue.attach_meter(meter)
        queue.enqueue_inference(
            InferenceKernel(SIMPLE), rng.standard_normal((32, 4)).astype(np.float32)
        )
        assert meter.n_samples == 1
