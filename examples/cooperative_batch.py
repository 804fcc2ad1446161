"""Cooperative partitioning: one huge batch, every device at once.

§I motivates the work by pointing out that accelerator-only systems leave
"other devices idle, potentially underutilizing the available
computational power".  This example splits a single large classification
batch across CPU + iGPU + dGPU with the min-makespan partitioner and
compares against the best single device.

Run:  python examples/cooperative_batch.py
"""

from repro import Context, Dispatcher
from repro.experiments.report import render_table
from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.ocl.device import DeviceState
from repro.ocl.platform import get_all_devices
from repro.ocl.queue import CommandQueue
from repro.sched.partition import BatchPartitioner
from repro.units import throughput_gbit_s


def main() -> None:
    ctx = Context(get_all_devices())
    dispatcher = Dispatcher(ctx)
    for spec in (SIMPLE, MNIST_SMALL):
        dispatcher.deploy_fresh(spec, rng=0)
    partitioner = BatchPartitioner(dispatcher, ctx.devices)

    rows = []
    for spec in (SIMPLE, MNIST_SMALL):
        for batch in (1 << 10, 1 << 14, 1 << 18):
            best_single = min(
                d.preview(spec, batch, state=DeviceState.WARM)[0].total_s
                for d in ctx.devices
            )
            queues = {}
            for d in ctx.devices:
                d.force_state(DeviceState.WARM)
                queues[d.device_class.value] = CommandQueue(ctx, d)
            result = partitioner.submit_virtual(spec, batch, queues)
            rows.append(
                (
                    spec.name,
                    batch,
                    ", ".join(f"{d}:{n}" for d, n in result.plan.shares.items()),
                    f"{throughput_gbit_s(batch * spec.sample_bytes, best_single):.2f}",
                    f"{throughput_gbit_s(batch * spec.sample_bytes, result.makespan_s):.2f}",
                    f"{best_single / result.makespan_s:.2f}x",
                )
            )

    print(
        render_table(
            ("model", "batch", "partition", "best single Gb/s", "combined Gb/s", "speedup"),
            rows,
            title="one batch, all devices (min-makespan split)",
        )
    )
    print(
        "\nsmall batches collapse to a single device (fixed costs dominate);\n"
        "large batches gain the sum of the testbed's throughputs."
    )


if __name__ == "__main__":
    main()
