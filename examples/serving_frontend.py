"""SLO-aware serving frontend: queues, coalescing, admission control.

An overload scenario end to end: a 3000 req/s flood hits a model served
with a 300 ms deadline.  Naive one-at-a-time dispatch (one launch per
request) melts down; the serving frontend coalesces the flood into large
launches (riding the batch-throughput curve of Fig. 3), bounds its
queues, and sheds only what provably cannot meet its deadline.

Run:  python examples/serving_frontend.py   (or: make serve-demo)
"""

from dataclasses import replace

import numpy as np

from repro.experiments.report import fmt_pct, render_table
from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.ocl.context import Context
from repro.ocl.platform import get_all_devices
from repro.sched.dataset import generate_dataset
from repro.sched.dispatcher import Dispatcher
from repro.sched.policies import Policy
from repro.sched.predictor import DevicePredictor
from repro.sched.scheduler import OnlineScheduler
from repro.serving import IMMEDIATE_DISPATCH, ServingFrontend, SLOConfig
from repro.workloads.requests import RequestTrace, make_trace
from repro.workloads.streams import OverloadStream

SPECS = {s.name: s for s in (SIMPLE, MNIST_SMALL)}


def build_scheduler(predictors):
    ctx = Context(get_all_devices())
    dispatcher = Dispatcher(ctx)
    for spec in SPECS.values():
        dispatcher.deploy_fresh(spec, rng=0)
    return OnlineScheduler(ctx, dispatcher, predictors)


def main() -> None:
    print("training the placement predictor (reduced grid)...")
    predictors = {
        Policy.THROUGHPUT: DevicePredictor("throughput").fit(
            generate_dataset(
                "throughput",
                specs=list(SPECS.values()),
                batches=(1, 64, 1024, 16384, 262144),
            )
        )
    }

    # A 1 s flood at 150x the normal arrival rate, every request carrying
    # a 300 ms completion deadline.
    stream = OverloadStream(
        horizon_s=4.0, slo_s=0.3, normal_rate_hz=20, overload_rate_hz=3000,
        overload_start_s=1.0, overload_end_s=2.0,
        normal_batch=64, overload_batch=64,
    )
    trace = make_trace(stream, [MNIST_SMALL], rng=7)
    print(f"trace: {len(trace)} requests, {trace.total_samples} samples\n")

    # Naive: every request alone, at arrival, on the predictor's pick —
    # no coalescing, no admission (so its deadlines are dropped too).
    naive = ServingFrontend(
        build_scheduler(predictors), SPECS,
        default_slo=IMMEDIATE_DISPATCH, max_rank=1,
    ).serve_trace(RequestTrace(tuple(replace(r, deadline_s=None) for r in trace)))

    frontend = ServingFrontend(
        build_scheduler(predictors),
        SPECS,
        default_slo=SLOConfig(
            deadline_s=0.3, max_queue_depth=64, max_batch=4096, max_wait_s=0.005
        ),
    )
    result = frontend.serve_trace(trace)

    print(
        render_table(
            ("dispatch", "p50", "p99", "shed", "SLO violations"),
            [
                (
                    "naive (1 launch/request)",
                    f"{naive.latency_percentile(50) * 1e3:.1f} ms",
                    f"{naive.latency_percentile(99) * 1e3:.1f} ms",
                    "-",
                    "-",
                ),
                (
                    "serving frontend",
                    f"{result.latency_percentile(50) * 1e3:.1f} ms",
                    f"{result.latency_percentile(99) * 1e3:.1f} ms",
                    fmt_pct(result.shed_rate),
                    str(result.n_violations),
                ),
            ],
            title="overload: naive dispatch vs SLO-aware serving",
        )
    )

    telemetry = result.telemetry
    print(f"\nmax queue depth: {telemetry.max_queue_depth} "
          f"(bound: 64) — admission control kept the backlog finite")
    print("coalesced batches (log2-bucketed samples per launch):")
    for bucket, count in sorted(telemetry.batch_sizes.counts.items()):
        lo, hi = 2 ** bucket, 2 ** (bucket + 1) - 1
        print(f"  {lo:>5}-{hi:<5} samples: {'#' * min(count, 60)} {count}")
    print(f"mean batch: {telemetry.batch_sizes.mean_samples:.0f} samples/launch")

    shares = result.device_shares()
    print("device shares: "
          + ", ".join(f"{d}:{fmt_pct(s, 0)}" for d, s in shares.items()))

    # The frontend also serves real data — scores come back per request,
    # split out of whatever coalesced launch served them.
    live = ServingFrontend(build_scheduler(predictors), SPECS)
    rng = np.random.default_rng(0)
    response = live.submit("simple", rng.standard_normal((8, 4)).astype(np.float32))
    live.run()
    print(f"\nlive submit: scores {response.scores.shape} from "
          f"{response.device} in {response.latency_s * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
