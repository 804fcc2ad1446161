"""Per-node circuit breaker: closed / open / half-open with cooldown.

The router keeps one breaker per node.  While CLOSED the node takes
traffic; consecutive failures past the threshold — or a detected crash
(:meth:`CircuitBreaker.trip`) — flip it OPEN, after which the balancer
skips the node entirely.  Once the cooldown elapses the breaker moves to
HALF_OPEN, where a single health probe decides: success re-CLOSEs it (and
resets the cooldown), failure re-OPENs it with the cooldown doubled up to
a cap, so a flapping node backs off geometrically instead of being
hammered every heartbeat.
"""

from __future__ import annotations

import enum
import math
from typing import Callable

from repro.checks import require_count, require_finite

__all__ = ["BreakerState", "CircuitBreaker"]


class BreakerState(enum.Enum):
    """Breaker positions, in the classic three-state machine."""

    CLOSED = "closed"        # healthy: traffic flows
    OPEN = "open"            # tripped: no traffic until the cooldown ends
    HALF_OPEN = "half_open"  # probing: one health check decides

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class CircuitBreaker:
    """One node's health gate, driven by failures, crashes and probes.

    Parameters
    ----------
    failure_threshold:
        Consecutive request failures that trip a CLOSED breaker.
    cooldown_s:
        Seconds an OPEN breaker waits before offering a HALF_OPEN probe.
    max_cooldown_s:
        Cap on the doubled cooldown of a breaker that keeps re-opening.
    on_transition:
        Optional ``(now, old_state, new_state)`` callback — the router
        uses it for the event log and telemetry counters.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown_s: float = 0.2,
        max_cooldown_s: float = 2.0,
        on_transition: "Callable[[float, BreakerState, BreakerState], None] | None" = None,
    ):
        require_count("failure_threshold", failure_threshold)
        require_finite("cooldown_s", cooldown_s)
        if not cooldown_s <= max_cooldown_s < math.inf:
            raise ValueError(
                f"max_cooldown_s must be finite and >= cooldown_s {cooldown_s}, "
                f"got {max_cooldown_s}"
            )
        self.failure_threshold = failure_threshold
        self.cooldown_s = float(cooldown_s)
        self.max_cooldown_s = float(max_cooldown_s)
        self.on_transition = on_transition
        self.state = BreakerState.CLOSED
        self.n_opens = 0
        self.n_half_opens = 0
        self.n_closes = 0
        self._consecutive_failures = 0
        self._cooldown = self.cooldown_s
        self._opened_at: "float | None" = None

    # -- state machine -----------------------------------------------------

    def _to(self, state: BreakerState, now: float) -> None:
        old = self.state
        if old is state:
            return
        self.state = state
        if state is BreakerState.OPEN:
            self.n_opens += 1
            self._opened_at = now
        elif state is BreakerState.HALF_OPEN:
            self.n_half_opens += 1
        else:
            self.n_closes += 1
        if self.on_transition is not None:
            self.on_transition(now, old, state)

    @property
    def allows_traffic(self) -> bool:
        """Whether the balancer may route new requests through this node.

        HALF_OPEN does *not* take traffic: only the health probe may touch
        the node until it proves itself.
        """
        return self.state is BreakerState.CLOSED

    def cooldown_remaining_s(self, now: float) -> float:
        """Seconds until an OPEN breaker will accept a probe (0 otherwise)."""
        if self.state is not BreakerState.OPEN or self._opened_at is None:
            return 0.0
        return max(0.0, self._opened_at + self._cooldown - now)

    def record_success(self, now: float) -> None:
        """A request (or probe) succeeded: reset the failure streak.

        A HALF_OPEN breaker re-CLOSEs and its cooldown escalation resets —
        the node has served its probation.
        """
        self._consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._cooldown = self.cooldown_s
            self._to(BreakerState.CLOSED, now)

    def record_failure(self, now: float) -> None:
        """A request (or probe) failed.

        CLOSED trips once the consecutive-failure streak reaches the
        threshold; HALF_OPEN re-OPENs immediately with a doubled cooldown.
        """
        self._consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._cooldown = min(self._cooldown * 2.0, self.max_cooldown_s)
            self._to(BreakerState.OPEN, now)
        elif (
            self.state is BreakerState.CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._to(BreakerState.OPEN, now)

    def trip(self, now: float) -> None:
        """Force-OPEN (a detected crash skips the failure count).

        Already-OPEN breakers restart their cooldown — the node just
        failed again, whatever the previous reason was.
        """
        if self.state is BreakerState.HALF_OPEN:
            self._cooldown = min(self._cooldown * 2.0, self.max_cooldown_s)
        self._consecutive_failures = 0
        self._to(BreakerState.OPEN, now)
        self._opened_at = now

    def maybe_half_open(self, now: float) -> bool:
        """Offer a probe once the cooldown has elapsed (OPEN -> HALF_OPEN)."""
        if (
            self.state is BreakerState.OPEN
            and self._opened_at is not None
            and now - self._opened_at >= self._cooldown
        ):
            self._to(BreakerState.HALF_OPEN, now)
            return True
        return False

    def stats(self) -> dict:
        """Transition counters plus the live state, for stats() rollups."""
        return {
            "state": self.state.value,
            "opens": self.n_opens,
            "half_opens": self.n_half_opens,
            "closes": self.n_closes,
            "consecutive_failures": self._consecutive_failures,
            "cooldown_s": self._cooldown,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CircuitBreaker(state={self.state.value!r}, opens={self.n_opens})"
