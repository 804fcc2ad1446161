"""The issue's acceptance scenario: a heterogeneous fleet under overload.

Four nodes — two full testbed machines, two CPU-only — take a seeded
6 kHz flood.  Load-blind round-robin keeps feeding the CPU-only half, so
its tail latency and shed rate blow up; join-shortest-queue and the
predictor-aware least-ECT policy must each beat it *strictly* on both
p99 and shed rate.  A mid-trace drain must lose and duplicate nothing.
"""

import pytest

from repro.cluster import ClusterRouter, NodeState
from repro.nn.zoo import MNIST_SMALL
from repro.workloads.requests import make_trace
from repro.workloads.streams import OverloadStream
from tests.cluster.conftest import build_fleet

SLO_S = 0.3


@pytest.fixture(scope="module")
def overload_trace():
    stream = OverloadStream(
        horizon_s=4.0,
        slo_s=SLO_S,
        normal_rate_hz=20,
        overload_rate_hz=6000,
        overload_start_s=1.0,
        overload_end_s=2.0,
        normal_batch=64,
        overload_batch=64,
    )
    return make_trace(stream, [MNIST_SMALL], rng=7)


def run_policy(serving_predictors, trace, policy):
    router = ClusterRouter(
        build_fleet(serving_predictors), balancer=policy, rng=123
    )
    result = router.serve_trace(trace)
    return result.latency_percentile(99.0), result.shed_rate, result


@pytest.fixture(scope="module")
def policy_outcomes(serving_predictors, overload_trace):
    return {
        policy: run_policy(serving_predictors, overload_trace, policy)
        for policy in ("round-robin", "join-shortest-queue", "least-ect")
    }


@pytest.mark.parametrize("policy", ["join-shortest-queue", "least-ect"])
def test_load_aware_beats_round_robin(policy_outcomes, policy):
    rr_p99, rr_shed, _ = policy_outcomes["round-robin"]
    p99, shed, _ = policy_outcomes[policy]
    assert p99 < rr_p99, f"{policy} p99 {p99:.4f}s !< round-robin {rr_p99:.4f}s"
    assert shed < rr_shed, f"{policy} shed {shed:.4f} !< round-robin {rr_shed:.4f}"


def test_round_robin_actually_suffers(policy_outcomes):
    # Guard against a trivially easy scenario: the baseline must be in
    # genuine trouble (tail past the SLO, nonzero shed) for the policy
    # comparison above to mean anything.
    rr_p99, rr_shed, _ = policy_outcomes["round-robin"]
    assert rr_p99 > SLO_S
    assert rr_shed > 0.0


def test_every_policy_conserves_requests(policy_outcomes, overload_trace):
    for policy, (_, _, result) in policy_outcomes.items():
        assert all(r.done for r in result.responses), policy
        assert len(result.served) + len(result.shed) == len(overload_trace), policy


def test_mid_trace_drain_loses_nothing(serving_predictors, overload_trace):
    router = ClusterRouter(
        build_fleet(serving_predictors), balancer="join-shortest-queue"
    )
    for request in overload_trace:
        router.submit_request(request)
    router.run(until=1.5)                    # mid-flood
    rerouted = router.drain_node("node-a")
    router.run()

    result = router.result()
    # Zero lost: every submission resolved.
    assert all(r.done for r in result.responses)
    assert len(result.responses) == len(overload_trace)
    assert len(result.served) + len(result.shed) == len(overload_trace)
    # Zero duplicated: unique ids, and the fleet's node telemetries
    # counted each served request exactly once.
    ids = [r.request.request_id for r in result.served]
    assert len(ids) == len(set(ids))
    assert router.telemetry.merged().n_served == len(result.served)
    # The drain re-routed live work and completed.
    assert rerouted > 0
    assert router.node("node-a").state is NodeState.STANDBY
    assert all(r.node_name != "node-a" for r in result.rerouted)
