"""System changes: surviving dGPU contention with online adaptation.

§I: the scheduler "can respond quickly to dynamic performance fluctuations
that occur at real-time, such as data bursts, application overloads and
system changes."  The trained forest is an *offline* snapshot, so when a
second application grabs 95% of the discrete GPU mid-run, the snapshot is
wrong.  The backlog-aware scheduler learns each device's realized service
time: the contended dGPU's estimate balloons, so within a handful of
requests placement spills off the predictor's pick onto the runner-up,
then drifts back once the contention clears and the stale estimate ages
out (an unmeasured device is costed at zero service, so it is re-tried).

Run:  python examples/system_changes.py
"""

from repro import (
    Context,
    DevicePredictor,
    Dispatcher,
    OnlineScheduler,
    Policy,
    generate_dataset,
)
from repro.experiments.report import render_table
from repro.nn.zoo import MNIST_DEEP
from repro.ocl.platform import get_all_devices
from repro.sched.backlog import BacklogAwareScheduler


def drain(backlog, n, t, batch=1 << 14):
    picks = []
    for _ in range(n):
        decision, event = backlog.submit_virtual(MNIST_DEEP, batch, t)
        picks.append((decision.device, decision.spilled))
        t = event.time_ended + 0.05
    return picks, t


def summarize(tag, picks):
    counts: dict[str, int] = {}
    for device, _ in picks:
        counts[device] = counts.get(device, 0) + 1
    return (tag, len(picks),
            ", ".join(f"{d}:{c}" for d, c in sorted(counts.items())),
            sum(spilled for _, spilled in picks))


def main() -> None:
    ctx = Context(get_all_devices())
    dispatcher = Dispatcher(ctx)
    dispatcher.deploy_fresh(MNIST_DEEP, rng=0)
    predictor = DevicePredictor(Policy.THROUGHPUT).fit(generate_dataset("throughput"))
    base = OnlineScheduler(ctx, dispatcher, [predictor])
    backlog = BacklogAwareScheduler(base, service_ttl_s=10.0)
    dgpu = ctx.get_device("dgpu")

    rows = []
    # Phase 1: steady state — big Mnist-Deep batches belong on the dGPU.
    picks, t = drain(backlog, 20, 0.0)
    rows.append(summarize("steady state", picks))

    # Phase 2: another application occupies 95% of the dGPU.
    dgpu.set_background_load(0.95)
    picks, t = drain(backlog, 40, t)
    rows.append(summarize("dGPU contended (first 40)", picks))

    # Phase 3: contention clears; estimates age out and traffic returns.
    dgpu.set_background_load(0.0)
    picks, t = drain(backlog, 40, t + 15.0)  # idle gap lets estimates expire
    rows.append(summarize("contention cleared", picks))

    print(
        render_table(
            ("phase", "requests", "device picks", "spills"),
            rows,
            title="adaptive routing through a system change",
        )
    )
    print(
        f"\ntotals: {backlog.n_spills} spills off the predictor's pick "
        f"in {sum(r[1] for r in rows)} decisions"
    )


if __name__ == "__main__":
    main()
