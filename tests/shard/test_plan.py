"""ShardPlan validation and the group/worker mapping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import NodeSpec
from repro.errors import SchedulerError
from repro.shard import ShardPlan

G2 = (
    (NodeSpec("a0"), NodeSpec("a1")),
    (NodeSpec("b0"),),
)


def test_defaults_and_n_groups():
    plan = ShardPlan(groups=G2)
    assert plan.n_groups == 2
    assert plan.n_workers == 1
    assert plan.front_tier == "least-loaded"
    assert plan.balancer == "least-ect"


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        ({"groups": ()}, "at least one group"),
        ({"groups": ((NodeSpec("a"),), ())}, "no nodes"),
        (
            {"groups": ((NodeSpec("a"),), (NodeSpec("a"),))},
            "unique across all shard groups",
        ),
        ({"groups": G2, "n_workers": 0}, "n_workers"),
        ({"groups": G2, "n_workers": 3}, "n_workers"),
        ({"groups": G2, "lookahead_s": 0.0}, "lookahead"),
        ({"groups": G2, "lookahead_s": -1.0}, "lookahead"),
        ({"groups": G2, "front_tier": "nope"}, "unknown front tier"),
        ({"groups": G2, "balancer": "nope"}, "unknown balancer"),
        ({"groups": G2, "n_workers": 1.5}, "n_workers"),
        ({"groups": G2, "n_workers": 2.0}, "n_workers"),
        ({"groups": G2, "n_workers": True}, "n_workers"),
        ({"groups": G2, "lookahead_s": float("inf")}, "lookahead_s"),
        ({"groups": G2, "lookahead_s": float("nan")}, "lookahead_s"),
    ],
)
def test_invalid_plans_fail_loudly(kwargs, fragment):
    with pytest.raises(SchedulerError, match=fragment):
        ShardPlan(**kwargs)


def test_numpy_integer_worker_count_is_accepted():
    assert ShardPlan(groups=G2, n_workers=np.int64(2)).worker_groups(1) == (1,)


def test_inexact_latency_is_rejected():
    assert ShardPlan(groups=G2).exact_latency is True
    with pytest.raises(ValueError, match="exact_latency"):
        ShardPlan(groups=G2, exact_latency=False)


def test_unknown_front_tier_error_lists_known_names():
    with pytest.raises(SchedulerError, match="least-loaded"):
        ShardPlan(groups=G2, front_tier="typo")


def test_worker_groups_deal_round_robin():
    groups = tuple((NodeSpec(f"n{g}"),) for g in range(5))
    plan = ShardPlan(groups=groups, n_workers=2)
    assert plan.worker_groups(0) == (0, 2, 4)
    assert plan.worker_groups(1) == (1, 3)


def test_group_configs_spawn_stable_per_group_seeds():
    """Group g's seed stream depends on (seed, g), never on n_workers."""
    plan_a = ShardPlan(groups=G2, n_workers=1, seed=99)
    plan_b = ShardPlan(groups=G2, n_workers=2, seed=99)
    for cfg_a, cfg_b in zip(plan_a.group_configs(), plan_b.group_configs()):
        rng_a = np.random.default_rng(cfg_a.seed_seq)
        rng_b = np.random.default_rng(cfg_b.seed_seq)
        assert rng_a.integers(0, 2**63, 4).tolist() == \
            rng_b.integers(0, 2**63, 4).tolist()
    # ...and different groups get different streams.
    cfgs = ShardPlan(groups=G2, seed=99).group_configs()
    draws = [
        np.random.default_rng(c.seed_seq).integers(0, 2**63, 4).tolist()
        for c in cfgs
    ]
    assert draws[0] != draws[1]
