"""The per-request front tiers the window ``choose`` is held to.

:class:`~repro.cluster.balancers.FrontTier` routes a whole window per
call: ``hash`` over a ``uint64`` id array, ``round-robin`` as an offset
``arange``, ``least-loaded`` in one loop over local load lists.  These
are the plain one-request-at-a-time walks those fast paths must equal,
decision for decision: Python-int splitmix64, a turn counter, and a
minimum over ``(samples, count, group)`` key tuples.
"""

from __future__ import annotations

from repro.errors import SchedulerError

__all__ = ["OracleHash", "OracleRoundRobin", "OracleLeastLoaded", "ORACLES"]

_MASK = (1 << 64) - 1


class OracleHash:
    def __init__(self, n_groups: int):
        self.n_groups = n_groups

    def begin_window(self, summaries) -> None:
        return None

    def choose(self, request) -> int:
        z = (request.request_id + 0x9E3779B97F4A7C15) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return int((z ^ (z >> 31)) % self.n_groups)


class OracleRoundRobin:
    def __init__(self, n_groups: int):
        self.n_groups = n_groups
        self._turn = 0

    def begin_window(self, summaries) -> None:
        return None

    def choose(self, request) -> int:
        group = self._turn % self.n_groups
        self._turn += 1
        return group


class OracleLeastLoaded:
    def __init__(self, n_groups: int):
        self.n_groups = n_groups
        self._summaries = None
        self._pending = [0] * n_groups
        self._pending_samples = [0] * n_groups

    def begin_window(self, summaries) -> None:
        self._summaries = tuple(summaries)
        self._pending = [0] * self.n_groups
        self._pending_samples = [0] * self.n_groups

    def choose(self, request) -> int:
        if self._summaries is None:
            raise SchedulerError("begin_window() first")
        best, best_key = 0, None
        for g in range(self.n_groups):
            s = self._summaries[g]
            key = (
                s.outstanding_samples + self._pending_samples[g],
                s.outstanding + self._pending[g],
                g,
            )
            if best_key is None or key < best_key:
                best, best_key = g, key
        self._pending[best] += 1
        self._pending_samples[best] += request.batch
        return best


#: Front-tier name -> its per-request oracle class.
ORACLES = {
    "hash": OracleHash,
    "round-robin": OracleRoundRobin,
    "least-loaded": OracleLeastLoaded,
}
