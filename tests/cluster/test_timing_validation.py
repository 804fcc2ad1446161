"""Timing and count settings reject NaN, infinities and fractional counts.

A NaN passes every ``<=`` guard and an infinite horizon keeps a repeating
actor alive forever, so either one used to surface only inside the event
loop — after requests were already in the ledger — or hang a replay
outright.  Every case here must raise at construction, naming the field.
"""

from __future__ import annotations

import math

import pytest

from repro.cluster import AutoscalerConfig
from repro.faults import CircuitBreaker, ResilienceConfig, RetryPolicy
from repro.sim.engine import EventLoop

NAN, INF = math.nan, math.inf


def schedule_repeating(**kwargs):
    args = {"interval": 0.1, "until": 1.0, **kwargs}
    EventLoop().schedule_repeating(
        args["interval"], lambda _loop: None, until=args["until"]
    )


CASES = [
    (ResilienceConfig, "timeout_s", NAN),
    (ResilienceConfig, "timeout_s", INF),
    (ResilienceConfig, "heartbeat_every_s", NAN),
    (ResilienceConfig, "heartbeat_every_s", INF),
    (ResilienceConfig, "heartbeat_tail_s", NAN),
    (ResilienceConfig, "heartbeat_tail_s", INF),
    (ResilienceConfig, "failure_threshold", 2.5),
    (ResilienceConfig, "failure_threshold", True),
    (ResilienceConfig, "breaker_cooldown_s", NAN),
    (ResilienceConfig, "breaker_max_cooldown_s", NAN),
    (ResilienceConfig, "breaker_max_cooldown_s", INF),
    (CircuitBreaker, "failure_threshold", 2.5),
    (CircuitBreaker, "cooldown_s", NAN),
    (CircuitBreaker, "max_cooldown_s", INF),
    (RetryPolicy, "max_attempts", 2.5),
    (RetryPolicy, "backoff_base_s", NAN),
    (RetryPolicy, "backoff_multiplier", NAN),
    (RetryPolicy, "backoff_multiplier", INF),
    (RetryPolicy, "backoff_cap_s", INF),
    (AutoscalerConfig, "check_every_s", NAN),
    (AutoscalerConfig, "check_every_s", INF),
    (AutoscalerConfig, "high_depth", NAN),
    (AutoscalerConfig, "high_depth", INF),
    (AutoscalerConfig, "low_depth", NAN),
    (AutoscalerConfig, "cooldown_s", NAN),
    (AutoscalerConfig, "cooldown_s", INF),
    (AutoscalerConfig, "slo_s", NAN),
    (AutoscalerConfig, "p99_factor", NAN),
    (AutoscalerConfig, "min_nodes", 1.5),
    (AutoscalerConfig, "max_nodes", 2.5),
    (schedule_repeating, "interval", NAN),
    (schedule_repeating, "interval", INF),
    (schedule_repeating, "until", NAN),
    (schedule_repeating, "until", INF),
]


@pytest.mark.parametrize(
    "build, field, value", CASES,
    ids=[f"{getattr(b, '__name__', b)}-{f}-{v}" for b, f, v in CASES],
)
def test_non_finite_time_or_fractional_count_is_rejected(build, field, value):
    with pytest.raises(ValueError, match=field):
        build(**{field: value})
