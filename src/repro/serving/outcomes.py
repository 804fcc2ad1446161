"""One outcome aggregate: the accessors every result type shares.

A served request, a routed request and a cascade chain all leave
'pending' once, as 'ok' (possibly late) or 'shed', so :class:`Outcomes`
answers the same questions over any of them; ``ServingResult``,
``ClusterResult`` and ``CascadeResult`` expose their records to it as
``outcomes``.  :func:`meets_deadline` is the one deadline predicate and
:func:`in_slo` the one goodput predicate (the router's O(1) ledger
counts with it too).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SchedulerError

__all__ = ["DEADLINE_EPS", "meets_deadline", "in_slo", "Outcomes"]

#: Completions landing within this of the deadline still meet it (float slop).
DEADLINE_EPS = 1e-9


def meets_deadline(end_s: float, deadline_s: "float | None") -> "bool | None":
    """Whether ``end_s`` meets ``deadline_s`` (None: best effort)."""
    if deadline_s is None:
        return None
    return end_s <= deadline_s + DEADLINE_EPS


def in_slo(outcome) -> bool:
    """Served within its SLO (or best effort): what goodput counts."""
    return outcome.status == "ok" and outcome.deadline_met is not False


class Outcomes:
    """Outcome accessors over ``self.outcomes``: the subclass's records,
    each with ``status``, ``deadline_met`` and ``latency_s``."""

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def served(self) -> list:
        return [o for o in self.outcomes if o.status == "ok"]

    @property
    def shed(self) -> list:
        return [o for o in self.outcomes if o.status == "shed"]

    @property
    def shed_rate(self) -> float:
        outcomes = self.outcomes
        return len(self.shed) / len(outcomes) if outcomes else 0.0

    @property
    def n_violations(self) -> int:
        """Served outcomes that finished after their deadline."""
        return sum(1 for o in self.served if o.deadline_met is False)

    def goodput(self) -> float:
        """Fraction of resolved outcomes served within their SLO.

        Sheds of every kind and late answers weigh against it equally.
        1.0 before anything resolves.
        """
        resolved = good = 0
        for o in self.outcomes:
            if o.status != "pending":
                resolved += 1
                good += in_slo(o)
        return good / resolved if resolved else 1.0

    def latency_percentile(self, q: float) -> float:
        """q-th percentile latency over served outcomes, in seconds."""
        served = self.served
        if not served:
            raise SchedulerError("no served requests in result")
        return float(np.percentile([o.latency_s for o in served], q))

    def _shares(self, attr: str) -> "dict[str, float]":
        """Fraction of served outcomes per value of ``attr``."""
        served = self.served
        counts: "dict[str, int]" = {}
        for o in served:
            key = getattr(o, attr)
            counts[key] = counts.get(key, 0) + 1
        return {k: c / len(served) for k, c in sorted(counts.items())}
