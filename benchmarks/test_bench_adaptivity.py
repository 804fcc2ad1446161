"""Bench: adaptivity to system changes (§I/§V claims beyond the figures).

Quantifies adaptation through learned service times
(:class:`BacklogAwareScheduler`): how quickly routing recovers after
another application grabs the dGPU, what probing the predictor's
runner-up device costs in steady state, and the §V-B feature-importance
claim.
"""

from conftest import emit

from repro.experiments.report import fmt_pct, render_table
from repro.nn.zoo import MNIST_DEEP
from repro.ocl.context import Context
from repro.ocl.platform import get_all_devices
from repro.sched.backlog import BacklogAwareScheduler
from repro.sched.dataset import generate_dataset
from repro.sched.dispatcher import Dispatcher
from repro.sched.features import FEATURE_NAMES
from repro.sched.policies import Policy
from repro.sched.predictor import DevicePredictor, default_estimator
from repro.sched.scheduler import OnlineScheduler


def build_adaptive(max_rank=2, ttl_s=180.0):
    """The TTL must sit above the workload's inter-observation gap — these
    Mnist-Deep 16K-batches take ~1.5 s each on the fallback devices, so a
    30 s TTL would expire the contended-dGPU estimate after ~20 requests
    and trigger periodic (correct, but noisy) re-probing."""
    ctx = Context(get_all_devices())
    dispatcher = Dispatcher(ctx)
    dispatcher.deploy_fresh(MNIST_DEEP, rng=0)
    predictors = {
        Policy.THROUGHPUT: DevicePredictor("throughput").fit(
            generate_dataset("throughput")
        )
    }
    base = OnlineScheduler(ctx, dispatcher, predictors)
    return base, BacklogAwareScheduler(base, max_rank=max_rank, service_ttl_s=ttl_s)


def test_bench_system_change_response(benchmark):
    """dGPU contention hits mid-stream; count requests until placement has
    shifted the majority of traffic off the contended device."""

    def run():
        base, ada = build_adaptive()
        t = 0.0
        for _ in range(20):  # steady state: big batches on the dGPU
            _, ev = ada.submit_virtual(MNIST_DEEP, 1 << 14, t)
            t = ev.time_ended + 0.01

        base.context.get_device("dgpu").set_background_load(0.95)
        spills_before = ada.n_spills
        devices = []
        for _ in range(60):
            d, ev = ada.submit_virtual(MNIST_DEEP, 1 << 14, t)
            devices.append(d.device)
            t = ev.time_ended + 0.01
        # First index from which a rolling window of 5 has <= 1 dgpu pick.
        shifted_at = next(
            (
                i
                for i in range(len(devices) - 5)
                if devices[i : i + 5].count("dgpu") <= 1
            ),
            None,
        )
        tail_share = devices[-20:].count("dgpu") / 20
        return shifted_at, tail_share, ada.n_spills - spills_before

    shifted_at, tail_share, spills = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Adaptivity — response to dGPU contention (95% background load)",
        render_table(
            ("quantity", "value"),
            [
                ("requests until majority rerouted", str(shifted_at)),
                ("dGPU share in final 20 requests", fmt_pct(tail_share)),
                ("spills off the predictor's pick", str(spills)),
            ],
        ),
    )
    assert shifted_at is not None and shifted_at < 30
    assert tail_share < 0.5


def test_bench_exploration_overhead(benchmark):
    """Steady-state cost of keeping alternatives measured: with
    ``max_rank=2`` the predictor's runner-up device is probed (and kept
    measured), with ``max_rank=1`` it never is."""

    def run():
        results = {}
        for max_rank in (1, 2):
            _, ada = build_adaptive(max_rank=max_rank)
            t, total_bytes, total_time = 0.0, 0, 0.0
            for _ in range(60):
                _, ev = ada.submit_virtual(MNIST_DEEP, 1 << 14, t)
                total_bytes += ev.meta["bytes"]
                total_time += ev.duration_s
                t = ev.time_ended + 0.01
            results[max_rank] = total_bytes / total_time / 1e9
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Adaptivity — exploration overhead (steady state, no disturbance)",
        render_table(
            ("eligible devices (max_rank)", "sustained Gbit/s"),
            [(str(k), f"{v:.3f}") for k, v in results.items()],
        ),
    )
    # Exploration costs something but must not be catastrophic.
    assert results[2] > 0.5 * results[1]
    assert results[1] >= results[2] * 0.99


def test_bench_feature_importance(benchmark):
    """§V-B: batch size and dGPU state are the key run-time features."""

    def run():
        ds = generate_dataset("throughput")
        rf = default_estimator()
        rf.fit(ds.x, ds.y)
        return dict(zip(FEATURE_NAMES, rf.feature_importances_))

    imp = benchmark.pedantic(run, rounds=1, iterations=1)
    ranked = sorted(imp.items(), key=lambda kv: -kv[1])
    emit(
        "Feature importances of the production random forest",
        render_table(("feature", "importance"), [(k, f"{v:.3f}") for k, v in ranked]),
    )
    assert ranked[0][0] == "batch"
    assert imp["gpu_warm"] > imp["is_cnn"]
