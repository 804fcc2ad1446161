"""The resilience knob block a router opts into.

``ClusterRouter(..., resilience=ResilienceConfig())`` arms the whole
defensive stack — per-node circuit breakers, heartbeat health checks,
per-request timeouts and deadline-respecting retries.  The default is
``None``: a router without a config schedules no extra events, consults
no breakers and draws no random numbers, so fault-free results stay
digit-identical to the pre-resilience code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.checks import require_count, require_finite
from repro.faults.retry import RetryPolicy

__all__ = ["ResilienceConfig"]


@dataclass(frozen=True)
class ResilienceConfig:
    """Timeout, retry, heartbeat and breaker settings for one router.

    Parameters
    ----------
    retry:
        Backoff/budget policy for failed and timed-out requests.
    timeout_s:
        Per-request rescue timeout: a request still unresolved this long
        after routing is pulled back *if it is still queued* (in-flight
        work is left to finish — cancelling it would risk running twice)
        and retried elsewhere.  None disables timeouts.
    heartbeat_every_s:
        Health-check period on the shared clock.  Crashes are detected at
        the first heartbeat after they happen, so this bounds the window
        in which a dead node silently swallows arrivals.
    heartbeat_tail_s:
        How long past the last trace arrival heartbeats keep running, so
        crashes near the end of a trace are still detected and their work
        re-adopted before the loop drains.
    failure_threshold:
        Consecutive per-request failures that trip a node's breaker.
    breaker_cooldown_s / breaker_max_cooldown_s:
        Initial and maximum cooldown of the per-node breakers (doubling on
        each re-open).
    seed:
        Seed for the retry-jitter stream (None = the deterministic
        library default).
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    timeout_s: "float | None" = 0.1
    heartbeat_every_s: float = 0.02
    heartbeat_tail_s: float = 1.0
    failure_threshold: int = 5
    breaker_cooldown_s: float = 0.2
    breaker_max_cooldown_s: float = 2.0
    seed: "int | None" = None

    def __post_init__(self) -> None:
        if self.timeout_s is not None:
            require_finite("timeout_s", self.timeout_s)
        require_finite("heartbeat_every_s", self.heartbeat_every_s)
        require_finite("heartbeat_tail_s", self.heartbeat_tail_s, positive=False)
        require_count("failure_threshold", self.failure_threshold)
        require_finite("breaker_cooldown_s", self.breaker_cooldown_s)
        if not self.breaker_cooldown_s <= self.breaker_max_cooldown_s < math.inf:
            raise ValueError(
                "breaker_max_cooldown_s must be finite and >= "
                f"breaker_cooldown_s {self.breaker_cooldown_s}, "
                f"got {self.breaker_max_cooldown_s}"
            )
