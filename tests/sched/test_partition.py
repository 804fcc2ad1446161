"""Cooperative batch partitioning."""

import pytest

from repro.errors import SchedulerError
from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.ocl.context import Context
from repro.ocl.device import DeviceState
from repro.ocl.platform import get_all_devices
from repro.ocl.queue import CommandQueue
from repro.sched.dispatcher import Dispatcher
from repro.sched.partition import AffineTimeModel, BatchPartitioner


@pytest.fixture()
def setup():
    ctx = Context(get_all_devices())
    dispatcher = Dispatcher(ctx)
    for spec in (SIMPLE, MNIST_SMALL):
        dispatcher.deploy_fresh(spec, rng=0)
    return ctx, dispatcher, BatchPartitioner(dispatcher, ctx.devices)


def fresh_queues(ctx, warm=True):
    queues = {}
    for d in ctx.devices:
        if warm:
            d.force_state(DeviceState.WARM)
        queues[d.device_class.value] = CommandQueue(ctx, d)
    return queues


class TestAffineFit:
    def test_fit_matches_preview_in_linear_regime(self):
        device = get_all_devices()[0]  # cpu
        model = AffineTimeModel.fit(device, MNIST_SMALL, DeviceState.WARM)
        probe = 1 << 13
        actual, _ = device.preview(MNIST_SMALL, probe, state=DeviceState.WARM)
        assert model.time(probe) == pytest.approx(actual.total_s, rel=0.1)

    def test_positive_parameters(self):
        for device in get_all_devices():
            m = AffineTimeModel.fit(device, SIMPLE, DeviceState.WARM)
            assert m.slope_s > 0
            assert m.fixed_s >= 0


class TestPlanning:
    def test_shares_sum_to_batch(self, setup):
        _, _, part = setup
        for batch in (512, 1 << 14, 1 << 17):
            plan = part.plan(MNIST_SMALL, batch)
            assert plan.total == batch

    def test_small_batch_single_device(self, setup):
        _, _, part = setup
        plan = part.plan(MNIST_SMALL, 128)
        assert plan.n_devices == 1

    def test_large_batch_uses_all_devices(self, setup):
        _, _, part = setup
        plan = part.plan(MNIST_SMALL, 1 << 17)
        assert plan.n_devices == 3

    def test_faster_device_gets_bigger_shard(self, setup):
        _, _, part = setup
        plan = part.plan(MNIST_SMALL, 1 << 17)
        assert plan.shares["dgpu"] > plan.shares["igpu"] > plan.shares["cpu"]

    def test_min_share_respected(self, setup):
        ctx, dispatcher, _ = setup
        part = BatchPartitioner(dispatcher, ctx.devices, min_share=64)
        plan = part.plan(MNIST_SMALL, 1 << 15)
        assert all(n >= 64 for n in plan.shares.values())

    def test_invalid_batch(self, setup):
        _, _, part = setup
        with pytest.raises(ValueError):
            part.plan(SIMPLE, 0)

    def test_needs_devices(self, setup):
        _, dispatcher, _ = setup
        with pytest.raises(SchedulerError):
            BatchPartitioner(dispatcher, [])


class TestExecution:
    def test_beats_best_single_device_at_scale(self, setup):
        ctx, _, part = setup
        batch = 1 << 17
        best_single = min(
            d.preview(MNIST_SMALL, batch, state=DeviceState.WARM)[0].total_s
            for d in ctx.devices
        )
        result = part.submit_virtual(MNIST_SMALL, batch, fresh_queues(ctx))
        assert result.makespan_s < best_single
        assert best_single / result.makespan_s > 1.1

    def test_prediction_close_to_execution(self, setup):
        ctx, _, part = setup
        result = part.submit_virtual(MNIST_SMALL, 1 << 16, fresh_queues(ctx))
        assert result.makespan_s == pytest.approx(
            result.plan.predicted_makespan_s, rel=0.15
        )

    def test_energy_is_sum_of_shards(self, setup):
        ctx, _, part = setup
        result = part.submit_virtual(MNIST_SMALL, 1 << 16, fresh_queues(ctx))
        assert result.energy_j == pytest.approx(
            sum(ev.energy.total_j for ev in result.events.values())
        )

    def test_shards_run_concurrently(self, setup):
        ctx, _, part = setup
        result = part.submit_virtual(MNIST_SMALL, 1 << 17, fresh_queues(ctx))
        starts = {ev.time_queued for ev in result.events.values()}
        assert len(starts) == 1  # synchronized scatter

    def test_throughput_property(self, setup):
        ctx, _, part = setup
        batch = 1 << 16
        result = part.submit_virtual(MNIST_SMALL, batch, fresh_queues(ctx))
        assert result.throughput_bytes_s == pytest.approx(
            batch * MNIST_SMALL.sample_bytes / result.makespan_s
        )
