"""Bench: cooperative partitioning vs best-single-device placement.

The §I motivation quantified: the combined testbed beats its best single
device once batches are large enough to amortize the extra fixed costs.
"""

from conftest import emit

from repro.experiments.report import render_table
from repro.nn.zoo import CIFAR10, MNIST_DEEP, MNIST_SMALL, SIMPLE
from repro.ocl.context import Context
from repro.ocl.device import DeviceState
from repro.ocl.platform import get_all_devices
from repro.ocl.queue import CommandQueue
from repro.sched.dispatcher import Dispatcher
from repro.sched.partition import BatchPartitioner

SPECS = (SIMPLE, MNIST_SMALL, MNIST_DEEP, CIFAR10)


def test_bench_partitioning(benchmark):
    def run():
        ctx = Context(get_all_devices())
        dispatcher = Dispatcher(ctx)
        for spec in SPECS:
            dispatcher.deploy_fresh(spec, rng=0)
        part = BatchPartitioner(dispatcher, ctx.devices)
        rows = []
        for spec in SPECS:
            for batch in (256, 1 << 14, 1 << 18):
                best_single = min(
                    d.preview(spec, batch, state=DeviceState.WARM)[0].total_s
                    for d in ctx.devices
                )
                queues = {}
                for d in ctx.devices:
                    d.force_state(DeviceState.WARM)
                    queues[d.device_class.value] = CommandQueue(ctx, d)
                result = part.submit_virtual(spec, batch, queues)
                rows.append(
                    (
                        spec.name,
                        batch,
                        result.plan.n_devices,
                        ", ".join(f"{d}:{n}" for d, n in result.plan.shares.items()),
                        f"{best_single / result.makespan_s:.2f}x",
                    )
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Cooperative partitioning vs best single device",
        render_table(("model", "batch", "devices", "shares", "speedup"), rows),
    )
    speedups = {(r[0], r[1]): float(r[4].rstrip("x")) for r in rows}
    # Small batches: no regression (collapses to single device).
    for spec in SPECS:
        assert speedups[(spec.name, 256)] >= 0.99
    # Large batches: every model gains from cooperation.
    for spec in SPECS:
        assert speedups[(spec.name, 1 << 18)] > 1.1
