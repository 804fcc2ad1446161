"""Fault injection and resilience: chaos for the fleet, on one clock.

The attack side (:class:`FaultInjector`, :class:`ErrorProfile`) schedules
deterministic, seeded faults — node crashes, device dropouts, thermal
throttling, transient per-request errors — on the same event loop the
traffic runs on.  The defense side (:class:`CircuitBreaker`,
:class:`RetryPolicy`, :class:`ResilienceConfig`) is what a
:class:`~repro.cluster.router.ClusterRouter` arms to survive them:
heartbeat crash detection (driven by
:meth:`~repro.cluster.router.ClusterRouter.schedule_health`) with
exactly-once re-adoption of orphaned work, per-node breakers the balancer
respects, and deadline-respecting retries with backoff.  See
``docs/resilience.md`` for the full model.
"""

from repro.faults.breaker import BreakerState, CircuitBreaker
from repro.faults.config import ResilienceConfig
from repro.faults.injector import FaultInjector, InjectedFault
from repro.faults.profile import ErrorProfile
from repro.faults.retry import RetryPolicy

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "ResilienceConfig",
    "FaultInjector",
    "InjectedFault",
    "ErrorProfile",
    "RetryPolicy",
]
