"""Scheduling policies (Fig. 5): what "best device" means per request."""

from __future__ import annotations

import enum

from repro.errors import PolicyError

__all__ = ["Policy"]


class Policy(enum.Enum):
    """Optimization target for a placement decision.

    * ``THROUGHPUT`` — maximize sustained Gbit/s (batch pipelines).
    * ``LATENCY`` — minimize end-to-end batch latency (interactive).
    * ``ENERGY`` — minimize joules per classification (green/edge).
    """

    THROUGHPUT = "throughput"
    LATENCY = "latency"
    ENERGY = "energy"

    # Identity hash (members compare by identity): Enum's is a Python call.
    __hash__ = object.__hash__

    @classmethod
    def parse(cls, value: "str | Policy") -> "Policy":
        """Accept a Policy or its string value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            known = ", ".join(p.value for p in cls)
            raise PolicyError(f"unknown policy {value!r}; known: {known}") from None

    @property
    def metric(self) -> str:
        """The telemetry metric this policy optimizes."""
        return self.value

    @property
    def maximize(self) -> bool:
        """True if larger metric values are better."""
        return self is Policy.THROUGHPUT

    def better(self, a: float, b: float) -> bool:
        """Is metric value ``a`` better than ``b`` under this policy?"""
        return a > b if self.maximize else a < b

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value
