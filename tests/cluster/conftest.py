"""Cluster-layer fixtures: small fleets over the shared serving predictor.

The predictor comes from the session-scoped ``serving_predictors`` fixture
(tests/conftest.py); fleets are rebuilt per test because node clocks and
membership states are mutable.  The heterogeneous four-node shape (two
full testbed machines, two CPU-only ones) is the acceptance scenario's
fleet: the slow half is what a load-blind policy keeps feeding.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterNode, LeastECTBalancer, NodeSpec, make_fleet
from repro.sched.predictor import DevicePredictor
from repro.serving import SLOConfig
from tests.serving.conftest import SERVING_SPECS

#: Two fast full-testbed nodes + two CPU-only stragglers.
HET_NODE_SPECS = (
    NodeSpec("node-a"),
    NodeSpec("node-b"),
    NodeSpec("node-c", device_classes=("cpu",)),
    NodeSpec("node-d", device_classes=("cpu",)),
)

#: The serving config used across cluster tests (bounded queues, 300 ms SLO).
CLUSTER_SLO = SLOConfig(
    deadline_s=0.3, max_queue_depth=64, max_batch=4096, max_wait_s=0.005
)


class NoPrimeLeastECT(LeastECTBalancer):
    """Least-ECT with ingestion priming switched off: the decision oracle.

    Every cell is then evaluated lazily, one at a time, the first time a
    probe asks for it — so any routing difference against the real
    balancer would be priming changing a decision.
    """

    def prepare(self, nodes, requests) -> None:
        return None


def build_fleet(
    predictors, node_specs=HET_NODE_SPECS, default_slo=CLUSTER_SLO, **kwargs
) -> "list[ClusterNode]":
    """A fresh fleet (fresh device clocks, shared trained predictors)."""
    return make_fleet(
        list(node_specs), predictors, SERVING_SPECS,
        default_slo=default_slo, **kwargs,
    )


@pytest.fixture()
def het_fleet(serving_predictors) -> "list[ClusterNode]":
    return build_fleet(serving_predictors)


class AlwaysRetrainPredictor(DevicePredictor):
    """A device predictor that retrains on every fit: the refit oracle.

    It forgets its last fit's inputs before each fit, so an unchanged
    refit trains a fresh forest as a fit always did — any decision that
    differs from the real predictor's would be fit reuse changing it.
    """

    def fit(self, dataset):
        self._last_fit = None
        return super().fit(dataset)
