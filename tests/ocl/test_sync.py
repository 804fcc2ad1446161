"""Event wait-lists, markers and barriers (cross-queue synchronization)."""

import numpy as np
import pytest

from repro.nn.zoo import SIMPLE
from repro.ocl.context import Context
from repro.ocl.event import Event
from repro.ocl.kernels import InferenceKernel
from repro.ocl.platform import get_all_devices
from repro.ocl.queue import CommandQueue


@pytest.fixture()
def ctx():
    return Context(get_all_devices())


def q(ctx, name):
    return CommandQueue(ctx, ctx.get_device(name))


class TestMarkersAndBarriers:
    def test_marker_is_instant(self, ctx):
        queue = q(ctx, "cpu")
        queue.advance_to(2.0)
        ev = queue.enqueue_marker()
        assert ev.time_ended == 2.0
        assert ev.duration_s == 0.0

    def test_barrier_with_waitlist_advances_clock(self, ctx):
        producer = q(ctx, "cpu")
        consumer = q(ctx, "dgpu")
        done = producer.enqueue_inference_virtual(InferenceKernel(SIMPLE), 4096)
        ev = consumer.enqueue_barrier(wait_for=[done])
        assert consumer.current_time == pytest.approx(done.time_ended)
        assert ev.time_ended == pytest.approx(done.time_ended)


class TestWaitLists:
    def test_cross_queue_dependency_delays_start(self, ctx):
        """A dGPU launch gated on a CPU result starts after the CPU ends."""
        cpu = q(ctx, "cpu")
        dgpu = q(ctx, "dgpu")
        kernel = InferenceKernel(SIMPLE)
        stage1 = cpu.enqueue_inference_virtual(kernel, 1 << 14)
        stage2 = dgpu.enqueue_inference_virtual(kernel, 1 << 14, wait_for=[stage1])
        assert stage2.time_queued >= stage1.time_ended

    def test_waiting_on_earlier_event_is_noop(self, ctx):
        queue = q(ctx, "igpu")
        kernel = InferenceKernel(SIMPLE)
        first = queue.enqueue_inference_virtual(kernel, 256)
        before = queue.current_time
        queue.enqueue_marker(wait_for=[first])
        assert queue.current_time == before

    def test_multiple_dependencies_take_latest(self, ctx):
        cpu, igpu, dgpu = q(ctx, "cpu"), q(ctx, "igpu"), q(ctx, "dgpu")
        kernel = InferenceKernel(SIMPLE)
        a = cpu.enqueue_inference_virtual(kernel, 1 << 12)
        b = igpu.enqueue_inference_virtual(kernel, 1 << 16)
        dgpu.enqueue_barrier(wait_for=[a, b])
        assert dgpu.current_time == pytest.approx(max(a.time_ended, b.time_ended))

    def test_incomplete_event_rejected(self, ctx):
        queue = q(ctx, "cpu")
        pending = Event("pending", time_queued=0.0)
        with pytest.raises(RuntimeError, match="not completed"):
            queue.enqueue_marker(wait_for=[pending])

    def test_waitlist_on_transfers(self, ctx, rng):
        from repro.ocl.buffer import Buffer

        cpu, dgpu = q(ctx, "cpu"), q(ctx, "dgpu")
        done = cpu.enqueue_inference_virtual(InferenceKernel(SIMPLE), 1 << 14)
        buf = Buffer(ctx, nbytes=1024)
        data = rng.integers(0, 255, 1024).astype(np.uint8)
        ev = dgpu.enqueue_write_buffer(buf, data, wait_for=[done])
        assert ev.time_queued >= done.time_ended


class TestPipelinePattern:
    def test_producer_consumer_pipeline_timing(self, ctx):
        """Classic pattern: stage batches on the CPU queue, consume on the
        dGPU queue; total makespan respects the dependency chain."""
        cpu, dgpu = q(ctx, "cpu"), q(ctx, "dgpu")
        kernel = InferenceKernel(SIMPLE)
        makespan = 0.0
        prev = None
        for _ in range(4):
            staged = cpu.enqueue_inference_virtual(kernel, 4096)
            wait = [staged] if prev is None else [staged, prev]
            prev = dgpu.enqueue_inference_virtual(kernel, 4096, wait_for=wait)
            makespan = prev.time_ended
        assert makespan >= cpu.current_time
        # Each consumer stage started no earlier than its producer finished.
        dgpu_events = [e for e in dgpu.events if e.command.startswith("inference")]
        cpu_events = [e for e in cpu.events if e.command.startswith("inference")]
        for c, p in zip(dgpu_events, cpu_events):
            assert c.time_queued >= p.time_ended
