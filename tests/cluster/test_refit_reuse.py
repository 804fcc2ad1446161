"""Fit reuse against the always-retrain oracle on a drift campaign.

An online fleet under two silent dGPU throttles refits its forest every
32 observations; most of those refits see the same offline + live rows
as the one before and keep the fitted forest.  Run against
:class:`AlwaysRetrainPredictor`, which trains a fresh forest on every
fit, the campaign must tell the same story: the same outcome digest, the
same drift flags and recoveries at the same observations, the same
online counters and the same decision-cache counters.
"""

import pytest

from repro.cluster import ClusterRouter, NodeSpec
from repro.faults import FaultInjector
from repro.nn.zoo import MNIST_SMALL
from repro.sched.online import OnlineConfig, OnlinePredictor
from repro.sched.policies import Policy
from repro.sched.predictor import DevicePredictor
from repro.shard.digest import digest_responses
from repro.workloads.requests import make_trace
from repro.workloads.streams import OverloadStream
from tests.cluster.conftest import AlwaysRetrainPredictor, build_fleet
from tests.serving.conftest import SERVING_SPECS

#: Four full testbed nodes, as in the drift benchmark workload.
SYMMETRIC = tuple(NodeSpec(f"node-{c}") for c in "abcd")
#: Two 4x throttle episodes (start s, duration s) on every node's dGPU.
THROTTLES = ((0.2, 0.2), (0.6, 0.2))


class RecordingOnlinePredictor(OnlinePredictor):
    """Logs each observation that flagged, recovered or refit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.events = []

    def observe(self, *args, **kwargs):
        events = super().observe(*args, **kwargs)
        if events.any:
            self.events.append((
                self.n_observations,
                tuple(k.label() for k in events.flagged),
                tuple(k.label() for k in events.recovered),
                events.refit,
            ))
        return events


@pytest.fixture(scope="module")
def drift_trace():
    stream = OverloadStream(
        horizon_s=1.0, slo_s=0.15,
        normal_rate_hz=200, overload_rate_hz=6000,
        overload_start_s=0.1, overload_end_s=0.9,
        normal_batch=64, overload_batch=256,
    )
    return make_trace(stream, [MNIST_SMALL], rng=1)


def run_campaign(base_cls, online_dataset, trace):
    online = RecordingOnlinePredictor(
        base_cls(Policy.THROUGHPUT).fit(online_dataset),
        SERVING_SPECS, online_dataset, OnlineConfig(refit_interval=32),
    )
    router = ClusterRouter(
        build_fleet({Policy.THROUGHPUT: online}, node_specs=SYMMETRIC, max_rank=1),
        balancer="least-ect",
        rng=123,
    )
    injector = FaultInjector(router)
    for spec in SYMMETRIC:
        for start, duration in THROTTLES:
            injector.throttle_device(
                start, spec.name, "dgpu", 4.0, duration_s=duration
            )
    result = router.serve_trace(trace)
    return router, online, result


@pytest.fixture(scope="module")
def campaigns(online_dataset, drift_trace):
    return {
        "real": run_campaign(DevicePredictor, online_dataset, drift_trace),
        "oracle": run_campaign(AlwaysRetrainPredictor, online_dataset, drift_trace),
    }


def test_campaign_exercises_refits_and_drift(campaigns):
    _, online, _ = campaigns["real"]
    assert online.n_refits >= 2
    assert online.n_refit_skips >= 1
    assert online.n_drift_flags >= 1
    assert online.n_recoveries >= 1


def test_same_outcome_digest(campaigns):
    (_, _, real), (_, _, oracle) = campaigns["real"], campaigns["oracle"]
    assert digest_responses(real.responses) == digest_responses(oracle.responses)


def test_same_flag_and_recovery_positions(campaigns):
    real, oracle = campaigns["real"][1], campaigns["oracle"][1]
    assert real.events
    assert real.events == oracle.events


def test_same_online_and_cache_counters(campaigns):
    (real_router, real, _), (oracle_router, oracle, _) = (
        campaigns["real"], campaigns["oracle"],
    )
    for counter in ("refits", "refit_skips", "drift_flags", "recoveries"):
        assert real.snapshot()[counter] == oracle.snapshot()[counter], counter
    assert real_router.decision_cache_stats() == oracle_router.decision_cache_stats()


def test_reuses_are_counted(campaigns):
    (real_router, real, _), (oracle_router, oracle, _) = (
        campaigns["real"], campaigns["oracle"],
    )
    assert 0 < real.n_refit_reuses < real.n_refits
    assert oracle.n_refit_reuses == 0
    assert real.snapshot()["refit_reuses"] == real.n_refit_reuses
    # The fleet rollup takes the max over nodes sharing one predictor.
    assert real_router.stats()["online"]["refit_reuses"] == real.n_refit_reuses
    assert oracle_router.stats()["online"]["refit_reuses"] == 0
