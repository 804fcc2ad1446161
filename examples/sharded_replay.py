"""Sharded trace replay: many processes, one bit-identical outcome.

Builds a seeded production-shaped trace, partitions an 8-node fleet into
4 logical shard groups, and replays the trace through the conservative
virtual-time protocol (``repro.shard``) at 1, 2 and 4 worker processes.
The script *asserts* the determinism contract the subsystem is built
around:

* the merged outcome digest is identical across every worker count —
  the process layout is an implementation detail, not a semantics
  change;
* a single-group sharded replay over a ``hash`` front tier (the static
  fast path: no windows at all) produces exactly the digest the
  monolithic ``serve_trace`` computes over the same fleet.

Then it reports the wall-clock speedup the extra processes buy (on a
single-core machine expect none — the point of the digests is that you
can scale workers up and down freely and *check* nothing changed).

``--tiny`` keeps the trace small for CI.

Run:  python examples/sharded_replay.py [--tiny]   (or: make sharded-demo)
"""

import argparse
import time

import numpy as np

from repro.cluster import ClusterRouter, NodeSpec, make_fleet
from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.sched.dataset import generate_dataset
from repro.sched.policies import Policy
from repro.sched.predictor import DevicePredictor
from repro.serving import SLOConfig
from repro.shard import ShardPlan, digest_responses, run_sharded
from repro.workloads import MixedTrace, MMPPStream, TraceComponent

SPECS = {s.name: s for s in (SIMPLE, MNIST_SMALL)}

SLO = SLOConfig(
    deadline_s=0.3, max_queue_depth=64, max_batch=4096, max_wait_s=0.005
)

SEED = 20220530

#: Four logical shard groups: a full testbed machine plus a CPU-only one
#: each, names globally unique so a merged outcome row is unambiguous.
GROUPS = tuple(
    (
        NodeSpec(f"shard{g}-a"),
        NodeSpec(f"shard{g}-b", device_classes=("cpu",)),
    )
    for g in range(4)
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
    ))
    return mix.build(rng=SEED)


def sharded(trace, predictors, n_workers, front_tier="least-loaded"):
    plan = ShardPlan(
        groups=GROUPS, n_workers=n_workers, lookahead_s=0.25,
        front_tier=front_tier, balancer="least-ect", seed=SEED,
    )
    return run_sharded(plan, trace, predictors, SPECS, default_slo=SLO)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tiny", action="store_true", help="CI smoke size")
    args = parser.parse_args()

    predictors = train_predictors(args.tiny)
    trace = production_trace(args.tiny)
    print(f"replaying {len(trace)} requests over {trace.horizon_s:.1f}s of "
          f"simulated time across {len(GROUPS)} shard groups...")

    results = {w: sharded(trace, predictors, w) for w in (1, 2, 4)}

    # The contract this example exists to demonstrate: the worker layout
    # never changes a single outcome.
    digests = {w: r.digest for w, r in results.items()}
    assert len(set(digests.values())) == 1, (
        f"digest diverged across worker counts: {digests}"
    )
    r = results[4]
    print(f"digest-identical: {r.digest[:16]}... at 1, 2 and 4 workers "
          f"({r.n_windows} conservative windows, "
          f"lookahead 0.25s of virtual time)")

    for w, res in results.items():
        print(f"  {w} worker{'s' if w > 1 else ' '}: {res.wall_s:.2f}s wall "
              f"({res.n_requests / res.wall_s:,.0f} req/s)"
              + (f"  [{results[1].wall_s / res.wall_s:.2f}x]" if w > 1 else ""))
    print(f"  served {r.n_served}, shed {r.n_shed} "
          f"(shed rate {r.shed_rate:.3f}), "
          f"p99 {r.latency_percentile(99.0, trace) * 1e3:.1f} ms")

    # Second identity: one static-routed group is exactly the monolithic
    # replay — sharding degenerates to serve_trace cleanly.
    mono_specs = (
        NodeSpec("solo-a"), NodeSpec("solo-b", device_classes=("cpu",)),
    )
    fleet = make_fleet(list(mono_specs), predictors, SPECS, default_slo=SLO)
    router = ClusterRouter(
        fleet, balancer="least-ect",
        rng=np.random.default_rng(np.random.SeedSequence(SEED).spawn(1)[0]),
    )
    t0 = time.perf_counter()
    mono = router.serve_trace(trace)
    mono_wall = time.perf_counter() - t0
    plan = ShardPlan(
        groups=(mono_specs,), n_workers=1, front_tier="hash",
        balancer="least-ect", seed=SEED,
    )
    solo = run_sharded(plan, trace, predictors, SPECS, default_slo=SLO)
    assert solo.digest == digest_responses(mono.responses), (
        "single-group static shard diverged from monolithic serve_trace"
    )
    print(f"degenerate case verified: 1 static group == monolithic "
          f"serve_trace, digest {solo.digest[:16]}... "
          f"(monolithic wall {mono_wall:.2f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
