"""Bench: cascade serving vs single-model serving under seeded overload.

One table answers the cascade subsystem's pitch: under a 6 kHz flood on
one testbed node with a 300 ms SLO, serving everything through the heavy
model sheds most of the flood, serving everything through the cheap model
keeps goodput but gives up the heavy model's answers, and the adaptive
cascade takes the best of both — cheap-stage answers for confident
samples, heavy-stage answers for the rest, thresholds retuned against
backlog so accuracy degrades *before* admission control sheds.

Acceptance assertions (the issue's criteria):

* cascade goodput >= 1.2x the heavy model's at the same SLO;
* the cascade's accuracy proxy strictly beats all-cheap serving;
* the adaptive controller demonstrably moved thresholds both ways;
* an identically seeded replay reproduces per-stage exit counts exactly.
"""

from conftest import emit

from repro.cascade import (
    CascadeExecutor,
    ThresholdController,
    build_stage_models,
    calibrated_controller_config,
    default_cascade,
    probe_for,
    profile_cascade,
)
from repro.experiments.report import fmt_pct, render_table
from repro.nn.zoo import MNIST_DEEP, MNIST_SMALL
from repro.ocl.context import Context
from repro.ocl.platform import get_all_devices
from repro.sched.dataset import generate_dataset
from repro.sched.dispatcher import Dispatcher
from repro.sched.policies import Policy
from repro.sched.predictor import DevicePredictor
from repro.sched.scheduler import OnlineScheduler
from repro.serving import ServingFrontend, SLOConfig
from repro.workloads.requests import make_trace
from repro.workloads.streams import OverloadStream

SPECS = {s.name: s for s in (MNIST_SMALL, MNIST_DEEP)}

SLO_S = 0.3
SLO = SLOConfig(
    deadline_s=SLO_S, max_queue_depth=64, max_batch=4096, max_wait_s=0.005
)

CONTROL_EVERY_S = 0.05


def make_frontend(predictors) -> ServingFrontend:
    ctx = Context(get_all_devices())
    dispatcher = Dispatcher(ctx)
    for spec in SPECS.values():
        dispatcher.deploy_fresh(spec, rng=0)
    return ServingFrontend(
        OnlineScheduler(ctx, dispatcher, predictors), SPECS, default_slo=SLO
    )


def run_cascade(predictors, cascade, profile, stream, rng=11):
    frontend = make_frontend(predictors)
    controller = ThresholdController(calibrated_controller_config(profile))
    executor = CascadeExecutor(
        frontend, cascade, profile, controller=controller, slo_s=SLO_S, rng=rng
    )
    trace = make_trace(stream, [MNIST_SMALL], rng=7)
    result = executor.serve_trace(trace, control_every_s=CONTROL_EVERY_S)
    return result, controller


def test_bench_cascade_vs_single_model(benchmark):
    predictors = {
        Policy.THROUGHPUT: DevicePredictor("throughput").fit(
            generate_dataset(
                "throughput",
                specs=list(SPECS.values()),
                batches=(1, 64, 1024, 16384),
            )
        )
    }
    cascade = default_cascade()
    # Partial training spreads the stages' accuracy apart so the proxy
    # column tells the real story: the cheap stage agrees with the heavy
    # one on confident samples, and escalation buys back the rest.
    models = build_stage_models(cascade, rng=0, train_samples=300, train_epochs=1)
    probe = probe_for(cascade.entry.spec.input_shape, n=256, rng=0)
    profile = profile_cascade(cascade, models, probe)
    stream = OverloadStream(
        horizon_s=4.0, slo_s=SLO_S, normal_rate_hz=20, overload_rate_hz=6000,
        overload_start_s=1.0, overload_end_s=2.0,
        normal_batch=64, overload_batch=64,
    )

    def run():
        rows, measured = [], {}
        # Single-model arms: the same flood, everything through one model.
        # The cheap arm's "accuracy" is its probe agreement with the heavy
        # model at threshold 0 (every sample takes the cheap answer).
        single_accuracy = {
            MNIST_SMALL.name: profile.stage(0).agreement("top1", 0.0),
            MNIST_DEEP.name: 1.0,
        }
        for spec in (MNIST_SMALL, MNIST_DEEP):
            frontend = make_frontend(predictors)
            result = frontend.serve_trace(make_trace(stream, [spec], rng=7))
            goodput = result.goodput()
            rows.append(
                (
                    f"{spec.name} only",
                    fmt_pct(goodput),
                    f"{result.latency_percentile(99.0) * 1e3:.1f} ms",
                    fmt_pct(result.shed_rate),
                    fmt_pct(single_accuracy[spec.name]),
                )
            )
            measured[spec.name] = goodput

        result, controller = run_cascade(predictors, cascade, profile, stream)
        rows.append(
            (
                "cascade (adaptive)",
                fmt_pct(result.goodput()),
                f"{result.latency_percentile(99.0) * 1e3:.1f} ms",
                fmt_pct(result.shed_rate),
                fmt_pct(result.telemetry.accuracy_proxy),
            )
        )

        # Seeded replay: per-stage exit counts must reproduce exactly.
        replay, _ = run_cascade(predictors, cascade, profile, stream)
        return rows, measured, result, controller, replay

    rows, measured, result, controller, replay = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    emit(
        "Cascade vs single-model serving — one node, 6 kHz overload, "
        f"{int(SLO_S * 1e3)} ms SLO",
        render_table(
            ("serving mode", "goodput", "p99", "shed", "accuracy proxy"), rows
        ),
    )

    # >= 20% higher goodput than the heavy model at the same SLO; the
    # heavy model is the single-model arm that matches the cascade's
    # answer quality (the cheap-only arm's accuracy proxy is the floor
    # the cascade must stay above).
    heavy = measured[MNIST_DEEP.name]
    assert result.goodput() >= 1.2 * heavy, (
        f"cascade goodput {result.goodput():.3f} must be >= 20% over "
        f"heavy-only {heavy:.3f}"
    )
    cheap_accuracy = profile.stage(0).agreement("top1", 0.0)
    assert result.telemetry.accuracy_proxy > cheap_accuracy, (
        "cascade must answer more accurately than all-cheap serving"
    )

    # The controller demonstrably moved as backlog shifted: lowered into
    # the flood, raised back in the calm phases.
    assert controller.n_lowered > 0, "controller never lowered under overload"
    assert controller.n_raised > 0, "controller never raised when calm"

    # Determinism: same seeds, same trace -> identical per-stage exits.
    assert replay.exit_counts() == result.exit_counts()
    assert [c.exits for c in replay.chains] == [c.exits for c in result.chains]
