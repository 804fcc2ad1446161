"""Production-scale trace replay: batched dispatch vs per-event, verified.

Builds a seeded production-shaped trace — an MMPP burst process, a flash
crowd and heavy-tailed user sessions interleaved over two models — and
replays it twice through the same 4-node fleet: once per request through
``submit_request`` (one heap event per arrival) and once through
``serve_trace`` (TraceCursor runs + batched routing/admission).  The
script *asserts* that both replays resolve every request digit-for-digit
identically (status, node, device, virtual end time and fleet
telemetry), then reports the wall-clock speedup the batched path buys.

``--tiny`` keeps the trace small for CI; the default size is a few
hundred thousand requests (the full million lives in
``benchmarks/wallclock/run.py --only million`` / ``make bench-million``).

Run:  python examples/million_replay.py [--tiny]   (or: make million-demo)
"""

import argparse
import time

from repro.cluster import ClusterRouter, NodeSpec, make_fleet
from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.sched.dataset import generate_dataset
from repro.sched.policies import Policy
from repro.sched.predictor import DevicePredictor
from repro.serving import SLOConfig
from repro.shard.digest import digest_responses
from repro.workloads import (
    FlashCrowdStream,
    MixedTrace,
    MMPPStream,
    SessionStream,
    TraceComponent,
)

SPECS = {s.name: s for s in (SIMPLE, MNIST_SMALL)}

SLO = SLOConfig(
    deadline_s=0.3, max_queue_depth=64, max_batch=4096, max_wait_s=0.005
)

FLEET = (
    NodeSpec("node-a"),
    NodeSpec("node-b"),
    NodeSpec("node-c", device_classes=("cpu",)),
    NodeSpec("node-d", device_classes=("cpu",)),
)


def train_predictors(tiny: bool):
    print("training the placement predictor once, fleet-wide...")
    batches = (1, 64, 1024) if tiny else (1, 64, 1024, 16384, 262144)
    return {
        Policy.THROUGHPUT: DevicePredictor("throughput").fit(
            generate_dataset(
                "throughput", specs=list(SPECS.values()), batches=batches
            )
        )
    }


def production_trace(tiny: bool):
    horizon = 2.0 if tiny else 8.0
    scale = 1.0 if tiny else 5.0
    mix = MixedTrace(components=(
        TraceComponent(
            process=MMPPStream(
                horizon_s=horizon, slo_s=0.3,
                rates_hz=(1_500.0 * scale, 6_000.0 * scale),
                mean_sojourn_s=(0.8, 0.25), batch_sigma=0.0,
            ),
            models=(MNIST_SMALL.name, SIMPLE.name),
            name="recsys-bursts",
        ),
        TraceComponent(
            process=FlashCrowdStream(
                horizon_s=horizon, slo_s=0.2,
                base_rate_hz=400.0 * scale, peak_rate_hz=4_000.0 * scale,
                spike_at_s=horizon * 0.4, ramp_s=0.2,
                decay_tau_s=horizon * 0.15, batch_sigma=0.0,
            ),
            models=(SIMPLE.name,),
            name="search-flash-crowd",
        ),
        TraceComponent(
            process=SessionStream(
                horizon_s=horizon, slo_s=0.4,
                session_rate_hz=150.0 * scale, batch_sigma=0.0,
            ),
            models=(MNIST_SMALL.name,),
            name="user-sessions",
        ),
    ))
    return mix.build(rng=20220530)


def replay(trace, predictors, per_request: bool):
    fleet = make_fleet(list(FLEET), predictors, SPECS, default_slo=SLO)
    router = ClusterRouter(fleet, balancer="least-ect", rng=123)
    t0 = time.perf_counter()
    if per_request:
        for request in trace:
            router.submit_request(request)
        router.run()
        result = router.result()
    else:
        result = router.serve_trace(trace)
    wall_s = time.perf_counter() - t0
    outcome = [r.outcome_tuple() for r in result.responses]
    return outcome, result.telemetry.snapshot(), result, wall_s


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tiny", action="store_true", help="CI smoke size")
    args = parser.parse_args()

    predictors = train_predictors(args.tiny)
    trace = production_trace(args.tiny)
    print(f"replaying {len(trace)} requests over {trace.horizon_s:.1f}s "
          "of simulated time, both dispatch paths...")

    per_event, telemetry_a, result, wall_a = replay(
        trace, predictors, per_request=True
    )
    batched, telemetry_b, _, wall_b = replay(
        trace, predictors, per_request=False
    )

    # The contract this example exists to demonstrate: batching the
    # dispatch never changes a single outcome.
    assert per_event == batched, "serve_trace diverged from per-request replay"
    assert telemetry_a == telemetry_b, "fleet telemetry diverged"
    print("digit-identical: every request resolved the same way on both "
          "paths (statuses, nodes, devices, virtual end times, telemetry)")
    print(f"  outcome digest {digest_responses(result.responses)[:16]}…")

    print(f"  per-event : {wall_a:.2f}s wall "
          f"({len(trace) / wall_a:,.0f} req/s)")
    print(f"  batched   : {wall_b:.2f}s wall "
          f"({len(trace) / wall_b:,.0f} req/s)  "
          f"[{wall_a / wall_b:.2f}x]")
    print(f"  served {len(result.served)}, shed {len(result.shed)} "
          f"(shed rate {result.shed_rate:.3f}), "
          f"p99 {result.latency_percentile(99.0) * 1e3:.1f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
