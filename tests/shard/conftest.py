"""Shard-layer fixtures: small sharded fleets over the shared predictor.

Traces are deliberately tiny (a few hundred requests over ~1 virtual
second) — the digest-invariance contract is exact, so a small population
proves as much as a flood, in a fraction of the wall time.  The real
multiprocess path forks, which is cheap on Linux but still ~100ms per
worker; most tests therefore drive the protocol ``inline`` and a couple
of dedicated tests pin inline == multiprocess.
"""

from __future__ import annotations

import pytest

from repro.cluster import NodeSpec
from repro.serving import SLOConfig
from repro.shard import ShardPlan, run_sharded
from repro.workloads import MixedTrace, MMPPStream, TraceComponent

from repro.nn.zoo import MNIST_SMALL, SIMPLE
from tests.serving.conftest import SERVING_SPECS

SHARD_SLO = SLOConfig(
    deadline_s=0.3, max_queue_depth=64, max_batch=4096, max_wait_s=0.005
)

#: Four tiny groups, globally-unique node names, one CPU-only straggler.
SHARD_GROUPS = tuple(
    (
        NodeSpec(f"g{g}-a"),
        NodeSpec(f"g{g}-b", device_classes=("cpu",)),
    )
    for g in range(4)
)


def small_trace(seed: int = 7, n_requests: int = 400, horizon_s: float = 1.0):
    """A seeded two-model MMPP trace, small enough for per-test replay."""
    mmpp = MMPPStream(
        horizon_s=horizon_s, slo_s=0.3, rates_hz=(400.0, 1600.0),
        mean_sojourn_s=(0.5, 0.2), batch_sigma=0.0,
    )
    mix = MixedTrace(components=(
        TraceComponent(
            process=mmpp, models=(MNIST_SMALL.name, SIMPLE.name), name="mmpp"
        ),
    ))
    return mix.build(rng=seed, n_requests=n_requests)


@pytest.fixture(scope="session")
def shard_trace():
    return small_trace()


def run_plan(predictors, trace, *, n_workers=1, groups=SHARD_GROUPS,
             front_tier="least-loaded", seed=20220530, inline=True,
             lookahead_s=0.25, **kwargs):
    """One sharded replay with the suite's defaults folded in."""
    plan = ShardPlan(
        groups=groups, n_workers=n_workers, lookahead_s=lookahead_s,
        front_tier=front_tier, balancer="least-ect", seed=seed,
    )
    return run_sharded(
        plan, trace, predictors, SERVING_SPECS,
        default_slo=SHARD_SLO, inline=inline, **kwargs,
    )
