"""Cascade serving: adaptive early-exit across the device hierarchy.

Chains the zoo's two MNIST FFNNs — Mnist-Small answers confident samples
on the CPU/iGPU, Mnist-Deep earns the dGPU for the escalations — and
retunes the exit threshold every 50 ms from backlog depth, SLO headroom
and shed pressure.  Under a 6 kHz flood the cascade degrades *accuracy*
smoothly (more cheap-stage answers) before admission control sheds,
landing between the two single-model extremes: far better goodput than
all-heavy serving, far better answers than all-cheap serving.

The script asserts its own promises: the cascade beats heavy-only
goodput at the same SLO, beats cheap-only on the accuracy proxy, the
controller demonstrably moves thresholds both ways, and an identically
seeded replay reproduces per-stage exit counts digit-for-digit.

Run:  python examples/cascade_serving.py          (or: make cascade-demo)
      python examples/cascade_serving.py --tiny   (CI smoke, ~seconds)
"""

import argparse

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
    result = executor.serve_trace(trace, control_every_s=0.05)
    return result, controller


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny", action="store_true",
        help="CI smoke sizes: shorter flood, smaller probe and grid",
    )
    args = parser.parse_args()

    print("training the placement predictor over both stage models...")
    predictors = {
        Policy.THROUGHPUT: DevicePredictor("throughput").fit(
            generate_dataset(
                "throughput",
                specs=list(SPECS.values()),
                batches=(1, 1024, 16384) if args.tiny else (1, 64, 1024, 16384),
            )
        )
    }

    cascade = default_cascade()
    print(f"cascade: {' -> '.join(cascade.model_names)}")
    print("building + partially training the stage networks...")
    models = build_stage_models(
        cascade, rng=0,
        train_samples=120 if args.tiny else 300, train_epochs=1,
    )
    probe = probe_for(
        cascade.entry.spec.input_shape, n=64 if args.tiny else 256, rng=0
    )
    profile = profile_cascade(cascade, models, probe)
    cheap_accuracy = profile.stage(0).agreement("top1", 0.0)

    stream = OverloadStream(
        horizon_s=1.5 if args.tiny else 4.0, slo_s=SLO_S,
        normal_rate_hz=20,
        overload_rate_hz=6000,
        overload_start_s=0.3 if args.tiny else 1.0,
        overload_end_s=0.6 if args.tiny else 2.0,
        normal_batch=64, overload_batch=64,
    )

    # -- single-model arms: the same flood through one model each --------
    rows, single_goodput = [], {}
    for spec, accuracy in ((MNIST_SMALL, cheap_accuracy), (MNIST_DEEP, 1.0)):
        frontend = make_frontend(predictors)
        result = frontend.serve_trace(make_trace(stream, [spec], rng=7))
        single_goodput[spec.name] = result.goodput()
        rows.append(
            (
                f"{spec.name} only",
                fmt_pct(result.goodput()),
                f"{result.latency_percentile(99.0) * 1e3:.1f} ms",
                fmt_pct(result.shed_rate),
                fmt_pct(accuracy),
            )
        )

    # -- the adaptive cascade --------------------------------------------
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
    print()
    print(
        render_table(
            ("serving mode", "goodput", "p99", "shed", "accuracy proxy"),
            rows,
            title="cascade vs single-model serving under overload",
        )
    )

    telemetry = result.telemetry
    print(f"exit histogram (samples per stage): {dict(sorted(telemetry.exits.items()))}")
    print(f"escalation rate: {fmt_pct(telemetry.escalation_rate)}, "
          f"forced exits: {telemetry.n_forced_samples} samples, "
          f"fallbacks: {telemetry.n_fallback_chains} chains")

    moves = controller.history
    theta_min = min(theta for _t, _k, theta in moves)
    theta_max = max(theta for _t, _k, theta in moves)
    print(f"controller: {len(moves)} threshold moves "
          f"({controller.n_lowered} down / {controller.n_raised} up), "
          f"theta swept [{theta_min:.3f}, {theta_max:.3f}]")

    # -- the script's promises -------------------------------------------
    heavy = single_goodput[MNIST_DEEP.name]
    assert result.goodput() > heavy, "cascade must beat heavy-only goodput"
    assert telemetry.accuracy_proxy > cheap_accuracy, (
        "cascade must answer more accurately than all-cheap serving"
    )
    assert controller.n_lowered > 0 and controller.n_raised > 0, (
        "controller must move thresholds both ways across the flood"
    )
    replay, _ = run_cascade(predictors, cascade, profile, stream)
    assert replay.exit_counts() == result.exit_counts(), (
        "seeded replay must reproduce per-stage exit counts exactly"
    )
    print("\nall promises held: goodput over heavy-only, accuracy over "
          "cheap-only,\nthresholds adapted both ways, seeded replay exact.")


if __name__ == "__main__":
    main()
