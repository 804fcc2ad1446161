"""Retry policy: exponential backoff, deterministic jitter, deadline-led.

A failed or timed-out request gets a bounded number of delivery attempts.
Backoff grows geometrically per attempt and is decorated with jitter from
a *seeded* generator (the router owns the stream), so reruns with the
same seed replay the same delays — chaos experiments stay reproducible.
Deadlines always win: a request whose SLO has already passed is shed, not
retried, because a late answer is worth nothing and the capacity it would
burn belongs to requests that can still make it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.checks import require_count, require_finite

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How many delivery attempts a request gets, and how they are spaced.

    Parameters
    ----------
    max_attempts:
        Total deliveries (first route included); 1 disables retries.
    backoff_base_s:
        Delay before the first retry.
    backoff_multiplier:
        Geometric growth per further retry.
    backoff_cap_s:
        Upper bound on any single backoff delay (pre-jitter).
    jitter_frac:
        Uniform jitter as a fraction of the delay: the realized backoff is
        ``delay * (1 + jitter_frac * u)`` with ``u ~ U[0, 1)`` from the
        caller's seeded stream.  0 disables jitter (and draws nothing).
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.005
    backoff_multiplier: float = 2.0
    backoff_cap_s: float = 0.1
    jitter_frac: float = 0.1

    def __post_init__(self) -> None:
        require_count("max_attempts", self.max_attempts)
        require_finite("backoff_base_s", self.backoff_base_s, positive=False)
        if not 1.0 <= self.backoff_multiplier < math.inf:
            raise ValueError(
                "backoff_multiplier must be finite and >= 1, "
                f"got {self.backoff_multiplier}"
            )
        if not self.backoff_base_s <= self.backoff_cap_s < math.inf:
            raise ValueError(
                "backoff_cap_s must be finite and >= backoff_base_s "
                f"{self.backoff_base_s}, got {self.backoff_cap_s}"
            )
        if not (0.0 <= self.jitter_frac <= 1.0):
            raise ValueError(
                f"jitter_frac must be in [0, 1], got {self.jitter_frac}"
            )

    def allows_retry(self, attempts_so_far: int) -> bool:
        """Whether a request delivered ``attempts_so_far`` times may retry."""
        return attempts_so_far < self.max_attempts

    def backoff_s(self, attempt: int, rng: "np.random.Generator | None" = None) -> float:
        """Delay before delivery attempt ``attempt + 1``.

        ``attempt`` counts deliveries already made (>= 1).  With a ``rng``
        and a nonzero ``jitter_frac``, one uniform draw decorates the
        capped geometric delay; jitter-free calls draw nothing, keeping
        the stream untouched.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        delay = min(
            self.backoff_base_s * self.backoff_multiplier ** (attempt - 1),
            self.backoff_cap_s,
        )
        if rng is not None and self.jitter_frac > 0.0:
            delay *= 1.0 + self.jitter_frac * float(rng.random())
        return delay
