"""Fleet-scale serving: many single-machine schedulers behind one router.

The paper schedules one request stream across the devices of a single
machine (§V); this package scales that *out*.  A fleet of
:class:`~repro.cluster.node.ClusterNode`s — each wrapping its own
:class:`~repro.serving.frontend.ServingFrontend` +
:class:`~repro.sched.backlog.BacklogAwareScheduler` over a possibly
heterogeneous device set — shares one virtual clock, and:

* :mod:`repro.cluster.balancers` — pluggable routing policies: round-robin,
  least-outstanding, join-shortest-queue, power-of-two-choices, and a
  predictor-aware least-estimated-completion-time policy that reuses each
  node's learned ``estimate_completion``;
* :mod:`repro.cluster.router` — the
  :class:`~repro.cluster.router.ClusterRouter` ingress: per-arrival
  routing decisions, graceful drains with exactly-once re-routing, and an
  event log;
* :mod:`repro.cluster.autoscaler` — an
  :class:`~repro.cluster.autoscaler.Autoscaler` that joins standby nodes
  and drains idle ones, driven by fleet queue depth and rolling p99
  versus the SLO;
* fleet telemetry lives in :class:`repro.telemetry.fleet.FleetTelemetry`
  (exact cluster-level percentiles, shed rate, peak queue depth);
* fault injection and the resilience stack (breakers, heartbeats,
  retries, exactly-once crash re-adoption) live in :mod:`repro.faults` —
  arm them with ``ClusterRouter(..., resilience=ResilienceConfig())``.

The node layer stays paper-faithful: every batch is still placed by the
Fig. 5 predictor + backlog spilling; the cluster layer decides only
*which machine* gets the request.
"""

from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig
from repro.cluster.balancers import (
    BALANCERS,
    FRONT_TIERS,
    FrontTier,
    HashFrontTier,
    JoinShortestQueueBalancer,
    LeastECTBalancer,
    LeastLoadedFrontTier,
    LeastOutstandingBalancer,
    LoadBalancer,
    PowerOfTwoBalancer,
    RoundRobinBalancer,
    RoundRobinFrontTier,
    ShardSummary,
    make_balancer,
    make_front_tier,
)
from repro.cluster.node import (
    ClusterNode,
    NodeSpec,
    NodeState,
    build_node,
    make_fleet,
)
from repro.cluster.router import (
    ClusterEvent,
    ClusterResult,
    ClusterRouter,
)
from repro.telemetry.fleet import FleetTelemetry

__all__ = [
    "NodeState",
    "NodeSpec",
    "ClusterNode",
    "build_node",
    "make_fleet",
    "LoadBalancer",
    "RoundRobinBalancer",
    "LeastOutstandingBalancer",
    "JoinShortestQueueBalancer",
    "PowerOfTwoBalancer",
    "LeastECTBalancer",
    "BALANCERS",
    "make_balancer",
    "FrontTier",
    "HashFrontTier",
    "RoundRobinFrontTier",
    "LeastLoadedFrontTier",
    "ShardSummary",
    "FRONT_TIERS",
    "make_front_tier",
    "ClusterEvent",
    "ClusterResult",
    "ClusterRouter",
    "Autoscaler",
    "AutoscalerConfig",
    "FleetTelemetry",
]
