"""The sharded replay protocol: determinism, equivalence, crash safety.

The expensive contracts (inline == multiprocess, crash detection) fork
real worker processes; everything else drives the same protocol inline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterRouter, NodeSpec, make_fleet
from repro.shard import ShardWorkerError, digest_responses

from tests.serving.conftest import SERVING_SPECS
from tests.shard.conftest import SHARD_GROUPS, SHARD_SLO, run_plan


def test_digest_invariant_across_worker_counts_inline(
    serving_predictors, shard_trace
):
    """The tentpole contract: worker layout never changes an outcome."""
    results = {
        w: run_plan(serving_predictors, shard_trace, n_workers=w)
        for w in (1, 2, 4)
    }
    digests = {w: r.digest for w, r in results.items()}
    assert len(set(digests.values())) == 1, digests
    r = results[4]
    assert r.n_requests == len(shard_trace)
    assert r.n_windows >= 1
    assert [row[0] for row in r.rows] == list(range(len(shard_trace)))


def test_multiprocess_matches_inline(serving_predictors, shard_trace):
    inline = run_plan(serving_predictors, shard_trace, n_workers=2)
    forked = run_plan(
        serving_predictors, shard_trace, n_workers=2, inline=False
    )
    assert forked.digest == inline.digest
    assert forked.rows == inline.rows


def test_static_single_group_matches_monolithic_vectorized(
    serving_predictors, shard_trace
):
    """Sharding degenerates cleanly: 1 static group == serve_trace."""
    seed = 20220530
    specs = (NodeSpec("solo-a"), NodeSpec("solo-b", device_classes=("cpu",)))
    fleet = make_fleet(list(specs), serving_predictors, SERVING_SPECS,
                       default_slo=SHARD_SLO)
    router = ClusterRouter(
        fleet, balancer="least-ect",
        rng=np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0]),
    )
    mono = router.serve_trace(shard_trace)
    solo = run_plan(
        serving_predictors, shard_trace,
        groups=(specs,), front_tier="hash", seed=seed,
    )
    assert solo.n_windows == 0  # static tier: no window protocol at all
    assert solo.digest == digest_responses(mono.responses)


def test_static_tier_digest_invariant_across_workers(
    serving_predictors, shard_trace
):
    h1 = run_plan(serving_predictors, shard_trace, front_tier="hash")
    h4 = run_plan(
        serving_predictors, shard_trace, front_tier="hash", n_workers=4
    )
    assert h1.digest == h4.digest


def test_repeated_runs_are_deterministic(serving_predictors, shard_trace):
    a = run_plan(serving_predictors, shard_trace, n_workers=4)
    b = run_plan(serving_predictors, shard_trace, n_workers=4)
    assert a.digest == b.digest


def test_every_request_resolves_exactly_once(serving_predictors, shard_trace):
    r = run_plan(serving_predictors, shard_trace, n_workers=2)
    rids = [row[0] for row in r.rows]
    assert rids == sorted(set(rids))
    assert len(rids) == len(shard_trace)
    assert r.n_served + r.n_shed == r.n_requests


def test_result_carries_per_group_telemetry(serving_predictors, shard_trace):
    r = run_plan(serving_predictors, shard_trace, n_workers=2)
    assert sorted(r.group_telemetry) == [0, 1, 2, 3]
    total = sum(t["served"] for t in r.group_telemetry.values())
    assert total == r.n_served
    for g, util in r.group_utilization.items():
        # The satellite contract: loop utilization surfaces per shard.
        assert util["runs"] >= r.n_windows
        assert util["events_fired"] >= 0
        assert "window_stalls" in util
        assert r.group_telemetry[g]["event_loop"] == util


def test_latency_percentile(serving_predictors, shard_trace):
    r = run_plan(serving_predictors, shard_trace)
    p50 = r.latency_percentile(50.0, shard_trace)
    p99 = r.latency_percentile(99.0, shard_trace)
    assert 0.0 < p50 <= p99


def test_worker_crash_raises_with_shard_id_no_hang(
    serving_predictors, shard_trace
):
    """A worker dying mid-window surfaces, promptly, naming the shard."""
    with pytest.raises(ShardWorkerError, match=r"worker 1 .*died mid-window"):
        run_plan(
            serving_predictors, shard_trace, n_workers=2, inline=False,
            fail_at=(1, 2), timeout_s=60.0,
        )


def test_worker_crash_at_first_window(serving_predictors, shard_trace):
    with pytest.raises(ShardWorkerError, match="worker 0"):
        run_plan(
            serving_predictors, shard_trace, n_workers=2, inline=False,
            fail_at=(0, 0), timeout_s=60.0,
        )


def test_profile_dumps_per_shard_stats(
    serving_predictors, shard_trace, tmp_path
):
    import pstats

    base = tmp_path / "shardprof"
    run_plan(
        serving_predictors, shard_trace, n_workers=2, inline=False,
        profile=str(base),
    )
    for worker in (0, 1):
        path = f"{base}.shard{worker}"
        stats = pstats.Stats(path)
        assert stats.total_calls > 0
