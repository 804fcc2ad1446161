"""The sharded replay protocol: determinism, equivalence, crash safety.

The expensive contracts (inline == multiprocess, crash detection) fork
real worker processes; everything else drives the same protocol inline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterRouter, NodeSpec, make_fleet
from repro.errors import SchedulerError
from repro.nn.zoo import SIMPLE
from repro.shard import ShardWorkerError, digest_responses
from repro.shard import coordinator
from repro.shard.messages import Finalize, Ready, WindowDone
from repro.shard.worker import handle
from repro.workloads.requests import InferenceRequest, RequestTrace

from tests.serving.conftest import SERVING_SPECS
from tests.shard.conftest import SHARD_GROUPS, SHARD_SLO, run_plan, small_trace


def trace_at(*arrivals_s: float) -> RequestTrace:
    """One single-sample SIMPLE request per arrival time, ids in order."""
    return RequestTrace(tuple(
        InferenceRequest(i, t, SIMPLE.name, 1) for i, t in enumerate(arrivals_s)
    ))


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
    assert forked.group_utilization == inline.group_utilization


def test_forked_replay_with_an_empty_group_matches_inline(serving_predictors):
    """A group that serves nothing still ships an empty block through its pipe."""
    trace = trace_at(0.0, 0.001, 0.002)
    inline = run_plan(serving_predictors, trace, front_tier="hash", n_workers=2)
    forked = run_plan(
        serving_predictors, trace, front_tier="hash", n_workers=2,
        inline=False,
    )
    idle = [
        g for g, t in forked.group_telemetry.items()
        if t["served"] + t["shed"] == 0
    ]
    assert idle, forked.group_telemetry
    assert sorted(forked.group_telemetry) == [0, 1, 2, 3]
    assert forked.rows == inline.rows
    assert forked.digest == inline.digest
    assert [row[0] for row in forked.rows] == [0, 1, 2]


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
    assert sorted(r.group_utilization) == [0, 1, 2, 3]
    for util in r.group_utilization.values():
        # Loop utilization surfaces per shard, next to its telemetry.
        assert util["runs"] >= r.n_windows
        assert util["events_fired"] >= 0
        assert "window_stalls" in util


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


def test_last_arrival_on_a_rounded_down_boundary_is_served(serving_predictors):
    """int(1.18 / 0.01) + 1 windows end exactly at 1.18, one short."""
    trace = trace_at(0.0, 1.18)
    r = run_plan(serving_predictors, trace, lookahead_s=0.01)
    assert [row[0] for row in r.rows] == [0, 1]
    assert r.n_windows == 119


@pytest.mark.parametrize(
    "arrivals, lookahead_s",
    [
        ((0.0, 1.18), 0.01),
        ((0.0, 0.3, 0.3, 0.7), 0.1),
        ((0.5,), 0.25),
        ((0.0, 0.0), 0.25),
        ((0.0, 0.29, 0.58, 0.87), 0.29),
    ],
)
def test_window_split_places_every_index_exactly_once(arrivals, lookahead_s):
    trace = trace_at(*arrivals)
    slices = coordinator._window_slices(trace, lookahead_s)
    placed = [i for _, lo, hi in slices for i in range(lo, hi)]
    assert placed == list(range(len(trace)))
    for k, (until, lo, hi) in enumerate(slices):
        assert until == (k + 1) * lookahead_s
        assert all(
            until - lookahead_s <= trace.requests[i].arrival_s < until
            for i in range(lo, hi)
        )
    # Never fewer windows than the horizon spans.
    assert len(slices) >= int(trace.horizon_s / lookahead_s) + 1


def test_window_count_unchanged_where_the_horizon_count_covers_the_trace():
    trace = small_trace()
    slices = coordinator._window_slices(trace, 0.25)
    assert len(slices) == int(trace.horizon_s / 0.25) + 1
    assert coordinator._window_slices(trace_at(), 0.25) == []


@pytest.mark.parametrize(
    "timeout_s", [float("nan"), 0.0, -1.0, float("inf")]
)
def test_invalid_timeout_is_rejected_before_any_worker_starts(
    serving_predictors, shard_trace, monkeypatch, timeout_s
):
    def no_fork(*args, **kwargs):
        raise AssertionError("a worker was started")

    monkeypatch.setattr(coordinator, "_PipeWorker", no_fork)
    with pytest.raises(SchedulerError, match="timeout_s"):
        run_plan(
            serving_predictors, shard_trace, n_workers=2, inline=False,
            timeout_s=timeout_s,
        )


def test_inline_run_rejects_the_process_death_hook(
    serving_predictors, shard_trace
):
    """Rejected upfront, even for a window the replay never reaches."""
    with pytest.raises(SchedulerError, match=r"fail_at=\(1, 10000\)") as err:
        run_plan(serving_predictors, shard_trace, n_workers=2, fail_at=(1, 10_000))
    assert not isinstance(err.value, ShardWorkerError)


class _ScriptedWorker:
    """Replies from a script, for the coordinator's protocol checks."""

    worker = 3

    def __init__(self, *replies):
        self._replies = list(replies)

    def recv(self, timeout_s):
        return self._replies.pop(0)


def test_reply_of_the_wrong_kind_names_the_worker():
    worker = _ScriptedWorker(Finalize())
    with pytest.raises(ShardWorkerError, match="worker 3 sent Finalize where Ready"):
        coordinator._receive(worker, Ready, 1.0)


def test_handler_rejects_an_unknown_message_naming_the_worker():
    with pytest.raises(ShardWorkerError, match="worker 5 got an unknown message"):
        handle(5, {}, WindowDone(5, 0, ()))


def test_inline_group_failure_names_the_worker(
    serving_predictors, shard_trace, monkeypatch
):
    """Inline reports a failing group as the forked driver does."""
    drain = coordinator.GroupRuntime.finalize

    def finalize(self):
        if self.group == 3:
            raise RuntimeError("group 3 drained with 3 requests unresolved")
        return drain(self)

    monkeypatch.setattr(coordinator.GroupRuntime, "finalize", finalize)
    with pytest.raises(
        ShardWorkerError,
        match=r"shard worker 1 \(groups \[1, 3\]\) failed: RuntimeError: "
              r"group 3 drained with 3 requests unresolved",
    ) as err:
        run_plan(serving_predictors, shard_trace, n_workers=2)
    assert isinstance(err.value.__cause__, RuntimeError)
