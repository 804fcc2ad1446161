"""Video-analytics scenario: bursty object-classification traffic.

The paper's intro motivates scheduling with streaming workloads whose
volume fluctuates (data bursts, §I).  This example models a camera
pipeline: a steady trickle of Cifar-10-shaped frame batches punctuated by
motion-triggered bursts.  The online scheduler routes each batch, probing
the dGPU state live — watch it keep small quiet-period batches on the
CPU/iGPU and shift bursts onto the discrete GPU once it is worth warming.

Run:  python examples/video_analytics_stream.py
"""

from repro import (
    Context,
    DevicePredictor,
    Dispatcher,
    MeasurementSession,
    OnlineScheduler,
    Policy,
    ServingFrontend,
    generate_dataset,
)
from repro.experiments.report import fmt_pct, render_table
from repro.nn.zoo import CIFAR10, MNIST_CNN
from repro.ocl.platform import get_all_devices
from repro.serving import IMMEDIATE_DISPATCH
from repro.workloads.requests import make_trace
from repro.workloads.streams import BurstStream

SPECS = {s.name: s for s in (CIFAR10, MNIST_CNN)}


def main() -> None:
    ctx = Context(get_all_devices())
    dispatcher = Dispatcher(ctx)
    for spec in SPECS.values():
        dispatcher.deploy_fresh(spec, rng=0)

    predictor = DevicePredictor(Policy.THROUGHPUT).fit(generate_dataset("throughput"))
    scheduler = OnlineScheduler(ctx, dispatcher, [predictor])
    # One request at a time, at arrival, on the forest's pick.
    frontend = ServingFrontend(
        scheduler, SPECS, default_slo=IMMEDIATE_DISPATCH, max_rank=1
    )

    stream = BurstStream(
        horizon_s=30.0,
        base_rate_hz=3.0,        # quiet background frames
        burst_factor=24.0,       # motion events
        burst_duration_s=1.5,
        burst_every_s=10.0,
        base_batch=16,
    )
    trace = make_trace(stream, list(SPECS.values()), rng=3)
    print(f"replaying {len(trace)} requests over {stream.horizon_s:.0f}s "
          f"({trace.total_samples} frames total)\n")

    result = frontend.serve_trace(trace)
    served = result.served

    # Split the outcome into burst windows vs quiet periods.
    windows = stream.burst_windows()

    def in_burst(t: float) -> bool:
        return any(lo <= t < hi for lo, hi in windows)

    burst_recs = [r for r in served if in_burst(r.request.arrival_s)]
    quiet_recs = [r for r in served if not in_burst(r.request.arrival_s)]

    def shares(recs):
        counts = {}
        for r in recs:
            counts[r.device] = counts.get(r.device, 0) + 1
        total = max(len(recs), 1)
        return ", ".join(f"{d}:{c * 100 // total}%" for d, c in sorted(counts.items()))

    print(
        render_table(
            ("period", "requests", "frames", "device shares"),
            [
                ("quiet", len(quiet_recs), sum(r.request.batch for r in quiet_recs),
                 shares(quiet_recs)),
                ("burst", len(burst_recs), sum(r.request.batch for r in burst_recs),
                 shares(burst_recs)),
            ],
            title="placement by traffic period",
        )
    )
    # Hindsight oracle: the device the characterization names best for
    # each request's (model, batch) at the dGPU state its placement probed.
    session = MeasurementSession()
    correct = sum(
        session.best_device(SPECS[r.request.model], r.request.batch,
                            r.gpu_state, "throughput") == r.device_name
        for r in served
    )
    mean_latency = sum(r.latency_s for r in served) / len(served)
    makespan = max(r.end_s for r in served)
    print(
        f"\nprediction accuracy vs hindsight oracle: "
        f"{fmt_pct(correct / len(served))}"
    )
    print(f"mean request latency: {mean_latency * 1e3:.2f} ms   "
          f"p99: {result.latency_percentile(99) * 1e3:.2f} ms")
    print(f"total energy: {result.total_energy_j:.1f} J over {makespan:.1f}s")


if __name__ == "__main__":
    main()
