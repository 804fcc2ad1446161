"""Front tiers: deterministic shard choice over summaries or hashes."""

from __future__ import annotations

import pytest

from repro.cluster.balancers import (
    FRONT_TIERS,
    HashFrontTier,
    LeastLoadedFrontTier,
    RoundRobinFrontTier,
    ShardSummary,
    make_front_tier,
)
from repro.errors import SchedulerError
from repro.workloads.requests import InferenceRequest


def req(rid: int, batch: int = 1) -> InferenceRequest:
    return InferenceRequest(
        request_id=rid, model="simple", batch=batch, arrival_s=rid * 0.001
    )


def summary(group: int, outstanding: int = 0, samples: int = 0) -> ShardSummary:
    return ShardSummary(
        group=group, virtual_time_s=0.0, outstanding=outstanding,
        outstanding_samples=samples, queued=0, served=0, shed=0,
    )


def test_registry_and_factory():
    assert set(FRONT_TIERS) == {"hash", "round-robin", "least-loaded"}
    for name, cls in FRONT_TIERS.items():
        tier = make_front_tier(name, 4)
        assert isinstance(tier, cls)
        assert tier.name == name
    with pytest.raises(SchedulerError, match="least-loaded"):
        make_front_tier("nope", 4)
    with pytest.raises(SchedulerError):
        make_front_tier("hash", 0)


def test_hash_tier_is_static_deterministic_and_spread():
    tier = HashFrontTier(4)
    assert tier.uses_summaries is False
    reqs = [req(i) for i in range(1000)]
    choices = tier.choose(reqs).tolist()
    assert choices == HashFrontTier(4).choose(reqs).tolist()
    # The same ids in another window cut route the same way.
    assert choices == tier.choose(reqs[:300]).tolist() + tier.choose(reqs[300:]).tolist()
    counts = [choices.count(g) for g in range(4)]
    # splitmix64 over sequential ids spreads well; no shard starves.
    assert min(counts) > 150, counts


def test_round_robin_cycles():
    tier = RoundRobinFrontTier(3)
    assert tier.choose([req(i) for i in range(4)]).tolist() == [0, 1, 2, 0]
    # The turn carries over into the next call.
    assert tier.choose([req(i) for i in range(4, 7)]).tolist() == [1, 2, 0]


def test_least_loaded_requires_summaries_first():
    tier = LeastLoadedFrontTier(2)
    assert tier.uses_summaries is True
    with pytest.raises(SchedulerError, match="begin_window"):
        tier.choose([req(0)])


def test_least_loaded_validates_summary_order():
    tier = LeastLoadedFrontTier(2)
    with pytest.raises(SchedulerError):
        tier.begin_window((summary(1), summary(0)))
    with pytest.raises(SchedulerError):
        tier.begin_window((summary(0),))


def test_least_loaded_picks_lightest_and_tracks_pending():
    tier = LeastLoadedFrontTier(3)
    tier.begin_window((
        summary(0, outstanding=5, samples=500),
        summary(1, outstanding=0, samples=0),
        summary(2, outstanding=2, samples=200),
    ))
    # Lightest shard first; its pending correction then steers the next
    # arrivals away instead of herding everything onto shard 1.
    assert tier.choose([req(0, batch=300), req(1, batch=1)]).tolist() == [1, 2]
    # A later call in the same window keeps the correction.
    assert tier.choose([req(2, batch=1)]).tolist() == [2]
    # New window resets the pending correction.
    tier.begin_window((summary(0), summary(1), summary(2)))
    assert tier.choose([req(3)]).tolist() == [0]


def test_least_loaded_ties_break_by_count_then_group():
    tier = LeastLoadedFrontTier(3)
    tier.begin_window((
        summary(0, outstanding=4, samples=10),
        summary(1, outstanding=2, samples=10),
        summary(2, outstanding=2, samples=10),
    ))
    # Equal samples: fewer requests wins, then the lower group id.
    assert tier.choose([req(0, batch=5)]).tolist() == [1]
    assert tier.choose([req(1, batch=5)]).tolist() == [2]


def test_empty_window_routes_nothing():
    for name in FRONT_TIERS:
        tier = make_front_tier(name, 3)
        tier.begin_window((summary(0), summary(1), summary(2)))
        assert tier.choose([]).tolist() == []


def test_front_tier_rejects_bad_group_count():
    for name in FRONT_TIERS:
        with pytest.raises(SchedulerError):
            make_front_tier(name, -1)
