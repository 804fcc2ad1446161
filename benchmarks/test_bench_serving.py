"""Bench: the SLO-aware serving frontend vs naive one-at-a-time dispatch.

The serving layer's pitch in one table: under bursty and overloaded
streams, dynamic batch coalescing (ride the batch-throughput curve of
Fig. 3) plus admission control should buy a lower p99 latency and a
bounded queue, at the price of shedding what provably cannot meet its
deadline.  The naive baseline dispatches each request individually, at
its arrival, on the predictor's pick (the frontend with
``IMMEDIATE_DISPATCH`` and ``max_rank=1``, the trace's deadlines
removed so nothing is shed).
"""

from dataclasses import replace

from conftest import emit

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
from repro.workloads.streams import BurstStream, OverloadStream

SPECS = {s.name: s for s in (SIMPLE, MNIST_SMALL)}

SLO = SLOConfig(
    deadline_s=0.3, max_queue_depth=64, max_batch=4096, max_wait_s=0.005
)

STREAMS = {
    "burst": BurstStream(
        horizon_s=6.0, slo_s=0.3, base_rate_hz=20, burst_factor=40,
        burst_duration_s=0.5, burst_every_s=2.0, base_batch=64, max_batch=64,
    ),
    "overload": OverloadStream(
        horizon_s=4.0, slo_s=0.3, normal_rate_hz=20, overload_rate_hz=3000,
        overload_start_s=1.0, overload_end_s=2.0,
        normal_batch=64, overload_batch=64,
    ),
}


def build_scheduler(predictors):
    ctx = Context(get_all_devices())
    dispatcher = Dispatcher(ctx)
    for spec in SPECS.values():
        dispatcher.deploy_fresh(spec, rng=0)
    return OnlineScheduler(ctx, dispatcher, predictors)


def test_bench_serving_frontend(benchmark):
    predictors = {
        Policy.THROUGHPUT: DevicePredictor("throughput").fit(
            generate_dataset(
                "throughput",
                specs=list(SPECS.values()),
                batches=(1, 64, 1024, 16384, 262144),
            )
        )
    }

    def run():
        rows, measured = [], {}
        for name, stream in STREAMS.items():
            trace = make_trace(stream, [MNIST_SMALL], rng=7)

            naive = ServingFrontend(
                build_scheduler(predictors), SPECS,
                default_slo=IMMEDIATE_DISPATCH, max_rank=1,
            ).serve_trace(
                RequestTrace(tuple(replace(r, deadline_s=None) for r in trace))
            )
            naive_p99 = naive.latency_percentile(99)

            frontend = ServingFrontend(
                build_scheduler(predictors), SPECS, default_slo=SLO
            )
            served = frontend.serve_trace(trace)
            p99 = served.latency_percentile(99)

            rows.append(
                (
                    name,
                    len(trace),
                    f"{naive_p99 * 1e3:.1f} ms",
                    f"{p99 * 1e3:.1f} ms",
                    f"{naive_p99 / p99:.1f}x" if p99 > 0 else "-",
                    fmt_pct(served.shed_rate),
                    served.telemetry.max_queue_depth,
                    f"{served.telemetry.batch_sizes.mean_samples:.0f}",
                )
            )
            measured[name] = (naive_p99, p99, served)
        return rows, measured

    rows, measured = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Serving frontend — p99 latency and shedding vs naive dispatch",
        render_table(
            (
                "stream", "requests", "naive p99", "frontend p99", "speedup",
                "shed", "max depth", "mean batch",
            ),
            rows,
        ),
    )

    naive_p99, p99, served = measured["overload"]
    # The acceptance claim: strictly lower tail latency + bounded queue
    # under overload, with every request accounted for.
    assert p99 < naive_p99
    assert served.telemetry.max_queue_depth <= SLO.max_queue_depth
    assert len(served.served) + len(served.shed) == len(served.responses)
    # Bursts are absorbed without mass shedding.
    _, _, burst = measured["burst"]
    assert burst.shed_rate < 0.2
