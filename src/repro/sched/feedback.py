"""Outcome feedback: what the scheduler learns from its own dispatches.

The trained predictor encodes the *offline* characterization; the paper's
adaptivity claims ("respond quickly to dynamic fluctuations ... application
overloads and system changes", §I/§V) need an *online* signal too.  This
module provides it: an :class:`OutcomeTable` of exponentially-weighted
per-cell, per-device estimates of a realized metric (the backlog
scheduler's service seconds), built purely from the requests the scheduler
actually served.  Estimates age out after a TTL of virtual time so a
recovered device gets re-tried.

A *cell* coarsens a request to (model, log2-batch bucket, dGPU state) —
the same granularity at which the characterization found behaviour to
change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.checks import require_finite

__all__ = ["CellKey", "Estimate", "OutcomeTable", "batch_bucket"]


def batch_bucket(batch: int) -> int:
    """floor(log2(batch)), exact for every positive integer batch.

    ``int(math.log2(batch))`` rounds through a float and lands one bucket
    high just below large powers of two (``2**49 - 1``).
    """
    if batch <= 0:
        raise ValueError(f"batch must be positive, got {batch}")
    return int(batch).bit_length() - 1


@dataclass(frozen=True)
class CellKey:
    """Coarsened request signature."""

    model: str
    batch_bucket: int     # floor(log2(batch))
    gpu_state: str

    @classmethod
    def of(cls, model: str, batch: int, gpu_state: str) -> "CellKey":
        """Build the cell for a concrete (model, batch, gpu_state) request."""
        return cls(model=model, batch_bucket=batch_bucket(batch), gpu_state=gpu_state)


@dataclass
class Estimate:
    """EWMA of one (cell, device)'s realized policy metric."""

    value: float
    updated_at: float
    n_samples: int = 1


@dataclass
class OutcomeTable:
    """Per-(cell, device) running estimates of a realized metric.

    Parameters
    ----------
    alpha:
        EWMA weight of a new observation.
    ttl_s:
        Virtual seconds after which an estimate is considered stale.
    """

    alpha: float = 0.4
    ttl_s: float = 30.0
    _table: dict[tuple[CellKey, str], Estimate] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        require_finite("ttl_s", self.ttl_s)

    def observe(self, cell: CellKey, device: str, value: float, now: float) -> None:
        """Fold a realized metric observation into the estimate.

        Non-finite and negative values are rejected: one NaN folded into
        the EWMA would poison the estimate (NaN propagates through every
        later update) and silently mis-rank the device forever, and a
        negative service time or energy is always a caller bug; a NaN or
        infinite ``now`` (or TTL) would stop the estimate ageing out.
        """
        require_finite("now", now, positive=False)
        if not math.isfinite(value) or value < 0.0:
            raise ValueError(
                f"invalid observation {value!r} for cell {cell} on "
                f"device {device!r}"
            )
        key = (cell, device)
        prior = self._table.get(key)
        if prior is None or now - prior.updated_at > self.ttl_s:
            self._table[key] = Estimate(value=value, updated_at=now)
            return
        prior.value += self.alpha * (value - prior.value)
        prior.updated_at = now
        prior.n_samples += 1

    def binding(self, cell: CellKey, device: str) -> "Estimate | None":
        """Current estimate object for (cell, device), ignoring freshness.

        Decision caches hold this binding and apply the TTL themselves at
        read time.  :meth:`observe` may *replace* the object when an entry
        ages past TTL, so holders must also rebuild whenever the cell is
        observed (``BacklogAwareScheduler`` kills their entries on write).
        """
        return self._table.get((cell, device))

    def estimate(self, cell: CellKey, device: str, now: float) -> "Estimate | None":
        """Fresh estimate for (cell, device), or None if absent/stale."""
        est = self._table.get((cell, device))
        if est is None or now - est.updated_at > self.ttl_s:
            return None
        return est

    @property
    def n_cells(self) -> int:
        """Distinct cells with at least one estimate."""
        return len({cell for cell, _ in self._table})

    def __len__(self) -> int:
        return len(self._table)
