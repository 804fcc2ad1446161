"""Bench: the adaptive scheduler under live streams (§V's adaptivity).

Regenerates the dynamic-behaviour evidence: bursts, diurnal cycles and
overloads routed one request at a time by the online scheduler (the
serving frontend with ``IMMEDIATE_DISPATCH`` and ``max_rank=1``), with
each placement scored against the hindsight-best device
(:meth:`MeasurementSession.best_device`, the training-set labeller) at
the dGPU state it probed.
"""

from conftest import emit

from repro.experiments.report import fmt_pct, render_table
from repro.nn.zoo import MNIST_CNN, MNIST_DEEP, MNIST_SMALL, SIMPLE
from repro.ocl.context import Context
from repro.ocl.platform import get_all_devices
from repro.sched.dataset import generate_dataset
from repro.sched.dispatcher import Dispatcher
from repro.sched.policies import Policy
from repro.sched.predictor import DevicePredictor
from repro.sched.scheduler import OnlineScheduler
from repro.serving import IMMEDIATE_DISPATCH, ServingFrontend
from repro.telemetry.session import MeasurementSession
from repro.workloads.requests import make_trace
from repro.workloads.streams import BurstStream, DiurnalStream, OverloadStream

SPECS = {s.name: s for s in (SIMPLE, MNIST_SMALL, MNIST_DEEP, MNIST_CNN)}


def build_frontend():
    ctx = Context(get_all_devices())
    dispatcher = Dispatcher(ctx)
    for spec in SPECS.values():
        dispatcher.deploy_fresh(spec, rng=0)
    predictors = {
        Policy.THROUGHPUT: DevicePredictor("throughput").fit(
            generate_dataset("throughput")
        ),
        Policy.ENERGY: DevicePredictor("energy").fit(generate_dataset("energy")),
    }
    scheduler = OnlineScheduler(ctx, dispatcher, predictors)
    return ServingFrontend(
        scheduler, SPECS, default_slo=IMMEDIATE_DISPATCH, max_rank=1
    )


def prediction_accuracy(result):
    """Share of placements on the hindsight-best device."""
    session = MeasurementSession()
    hits = [
        session.best_device(
            SPECS[r.request.model], r.request.batch, r.gpu_state,
            r.request.policy,
        ) == r.device_name
        for r in result.served
    ]
    return sum(hits) / len(hits)


def test_bench_streams(benchmark):
    streams = {
        "burst": BurstStream(horizon_s=20.0, base_rate_hz=4, burst_factor=16,
                             burst_duration_s=1.0, burst_every_s=5.0, base_batch=32),
        "diurnal": DiurnalStream(horizon_s=20.0, period_s=10.0,
                                 peak_rate_hz=30, trough_rate_hz=2,
                                 peak_batch=8192, trough_batch=8),
        "overload": OverloadStream(horizon_s=20.0, overload_start_s=6.0,
                                   overload_end_s=14.0),
    }

    def run():
        rows = []
        for name, stream in streams.items():
            trace = make_trace(stream, list(SPECS.values()), rng=11)
            result = build_frontend().serve_trace(trace)
            served = result.served
            shares = result.device_shares()
            mean_latency = sum(r.latency_s for r in served) / len(served)
            rows.append(
                (
                    name,
                    len(served),
                    fmt_pct(prediction_accuracy(result)),
                    f"{mean_latency * 1e3:.2f} ms",
                    f"{result.total_energy_j:.1f} J",
                    ", ".join(f"{d}:{fmt_pct(s, 0)}" for d, s in shares.items()),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Streaming adaptivity — scheduler under dynamic load",
        render_table(
            ("stream", "requests", "accuracy", "mean latency", "energy", "device shares"),
            rows,
        ),
    )
    for name, n, acc, *_ in rows:
        assert n > 20
        assert float(acc.rstrip("%")) > 70.0
    # Adaptivity: each stream uses more than one device.
    for row in rows:
        assert "," in row[-1]
