"""Command queues: virtual time, events, execution modes."""

import numpy as np
import pytest

from repro.errors import DeviceError, KernelError
from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.ocl.buffer import Buffer, MemFlags
from repro.ocl.context import Context
from repro.ocl.kernels import InferenceKernel
from repro.ocl.platform import get_all_devices
from repro.ocl.queue import CommandQueue


@pytest.fixture()
def ctx():
    return Context(get_all_devices())


def queue_for(ctx, name):
    return CommandQueue(ctx, ctx.get_device(name))


class TestConstruction:
    def test_device_must_be_in_context(self):
        all_devices = get_all_devices()
        ctx = Context(all_devices[:2])
        with pytest.raises(DeviceError):
            CommandQueue(ctx, all_devices[2])

    def test_clock_starts_at_zero(self, ctx):
        assert queue_for(ctx, "cpu").current_time == 0.0


class TestClock:
    def test_advance(self, ctx):
        q = queue_for(ctx, "cpu")
        q.advance_to(5.0)
        assert q.current_time == 5.0

    def test_advance_backwards_rejected(self, ctx):
        q = queue_for(ctx, "cpu")
        q.advance_to(5.0)
        with pytest.raises(ValueError):
            q.advance_to(1.0)

    def test_finish_returns_clock(self, ctx):
        q = queue_for(ctx, "cpu")
        q.advance_to(2.0)
        assert q.finish() == 2.0


class TestInference:
    def test_event_advances_clock(self, ctx, rng):
        q = queue_for(ctx, "cpu")
        k = InferenceKernel(SIMPLE)
        ev = q.enqueue_inference(k, rng.standard_normal((8, 4)).astype(np.float32))
        assert q.current_time == pytest.approx(ev.time_ended)
        assert ev.latency_s > 0

    def test_scores_in_meta_and_buffer(self, ctx, rng):
        q = queue_for(ctx, "cpu")
        k = InferenceKernel(SIMPLE)
        out = Buffer(ctx, nbytes=8 * 3 * 4)
        x = rng.standard_normal((8, 4)).astype(np.float32)
        ev = q.enqueue_inference(k, x, out_buffer=out)
        np.testing.assert_array_equal(ev.meta["scores"], k.run(x))
        np.testing.assert_array_equal(out.read_host(), k.run(x))

    def test_execution_off_skips_compute_same_timing(self, ctx, rng):
        """Without a host batch nothing executes; the timing is the same."""
        x = rng.standard_normal((64, 4)).astype(np.float32)
        k = InferenceKernel(SIMPLE)
        ev_on = queue_for(ctx, "cpu").enqueue_inference(k, x)
        ev_off = queue_for(ctx, "cpu").enqueue_inference_virtual(k, 64)
        assert "scores" in ev_on.meta
        assert "scores" not in ev_off.meta
        assert ev_off.latency_s == pytest.approx(ev_on.latency_s)

    def test_virtual_launch_matches_real(self, ctx, rng):
        x = rng.standard_normal((64, 4)).astype(np.float32)
        k = InferenceKernel(SIMPLE)
        ev_real = queue_for(ctx, "igpu").enqueue_inference(k, x)
        ev_virt = queue_for(ctx, "igpu").enqueue_inference_virtual(k, 64)
        assert ev_virt.latency_s == pytest.approx(ev_real.latency_s)
        assert ev_virt.energy.total_j == pytest.approx(ev_real.energy.total_j)

    def test_wrong_sample_shape_rejected(self, ctx, rng):
        q = queue_for(ctx, "cpu")
        with pytest.raises(KernelError, match="shape"):
            q.enqueue_inference(
                InferenceKernel(SIMPLE), rng.standard_normal((4, 5)).astype(np.float32)
            )

    def test_empty_batch_rejected(self, ctx):
        q = queue_for(ctx, "cpu")
        with pytest.raises(KernelError):
            q.enqueue_inference(
                InferenceKernel(SIMPLE), np.zeros((0, 4), dtype=np.float32)
            )

    def test_dgpu_warms_across_launches(self, ctx):
        q = queue_for(ctx, "dgpu")
        k = InferenceKernel(MNIST_SMALL)
        first = q.enqueue_inference_virtual(k, 4096)
        second = q.enqueue_inference_virtual(k, 4096)
        assert second.latency_s < first.latency_s

    def test_events_recorded_in_order(self, ctx, rng):
        q = queue_for(ctx, "cpu")
        k = InferenceKernel(SIMPLE)
        for _ in range(3):
            q.enqueue_inference(k, rng.standard_normal((2, 4)).astype(np.float32))
        ends = [e.time_ended for e in q.events]
        assert ends == sorted(ends)

    def test_identical_outputs_across_devices(self, ctx, rng):
        """The portable kernel promise: same scores on every device."""
        x = rng.standard_normal((8, 4)).astype(np.float32)
        k = InferenceKernel(SIMPLE)
        outs = [
            queue_for(ctx, name).enqueue_inference(k, x).meta["scores"]
            for name in ("cpu", "igpu", "dgpu")
        ]
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(outs[0], outs[2])


class TestDataMovement:
    def test_write_read_roundtrip(self, ctx, rng):
        q = queue_for(ctx, "dgpu")
        buf = Buffer(ctx, nbytes=1024, flags=MemFlags.READ_WRITE | MemFlags.ALLOC_HOST_PTR)
        data = rng.integers(0, 255, 1024).astype(np.uint8)
        ev_w = q.enqueue_write_buffer(buf, data)
        out, ev_r = q.enqueue_read_buffer(buf)
        np.testing.assert_array_equal(out, data)
        assert ev_r.time_ended > ev_w.time_ended

    def test_dgpu_transfer_slower_than_cpu_map(self, ctx, rng):
        data = rng.integers(0, 255, 1 << 20).astype(np.uint8)
        t_cpu = queue_for(ctx, "cpu").enqueue_write_buffer(
            Buffer(ctx, nbytes=data.nbytes), data
        ).duration_s
        t_dgpu = queue_for(ctx, "dgpu").enqueue_write_buffer(
            Buffer(ctx, nbytes=data.nbytes), data
        ).duration_s
        assert t_dgpu > t_cpu
