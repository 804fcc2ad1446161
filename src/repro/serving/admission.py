"""Admission control: protect the served from the unservable.

Under the overloads the paper motivates (§I "application overloads"),
accepting every request makes *every* request late.  The controller bounds
each model's queue and — when a request carries a deadline — rejects work
whose estimated completion time already blows the SLO, using the backlog
scheduler's *learned* service times (no oracle previews).  Two shed modes:

* **reject** — the request is refused outright (the caller sees 'shed');
* **degrade** — the request bypasses the queue and runs immediately on the
  cheapest (lowest-power) device: strictly worse placement, but an answer.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.checks import require_finite
from repro.serving.queues import RequestQueue
from repro.workloads.requests import InferenceRequest

__all__ = ["AdmissionDecision", "AdmissionController"]


class AdmissionDecision(NamedTuple):
    """Outcome of one admission check (a tuple: one is built per arrival)."""

    action: str                        # 'accept' | 'shed' | 'degrade'
    reason: str                        # 'ok' | 'queue_full' | 'deadline_unmeetable'
    est_completion_s: "float | None" = None   # absolute est. completion, if computed

    @property
    def admitted(self) -> bool:
        return self.action == "accept"


class AdmissionController:
    """Bounded queues + estimated-completion-time (ECT) rejection.

    Parameters
    ----------
    degrade:
        When True, work that would be shed is degraded to the cheapest
        device instead of dropped.
    ect_margin:
        Safety factor on the completion estimate before comparing against
        the deadline (>1 sheds earlier, <1 is optimistic).  The estimate
        itself is conservative only insofar as the learned service table
        is; a cold table estimates zero and admits everything.
    """

    def __init__(self, degrade: bool = False, ect_margin: float = 1.0):
        require_finite("ect_margin", ect_margin)
        self.degrade = degrade
        self.ect_margin = ect_margin
        self.n_accepted = 0
        self.n_shed = 0
        self.n_degraded = 0

    def _refuse(self, reason: str, est: "float | None") -> AdmissionDecision:
        if self.degrade:
            self.n_degraded += 1
            return AdmissionDecision("degrade", reason, est)
        self.n_shed += 1
        return AdmissionDecision("shed", reason, est)

    def admit(
        self,
        request: InferenceRequest,
        queue: RequestQueue,
        now: float,
        est_delay_s: "float | None" = None,
    ) -> AdmissionDecision:
        """Decide one request's fate at its arrival instant.

        ``est_delay_s`` is the backlog scheduler's estimated wait+service
        delay from ``now`` (see ``BacklogAwareScheduler.estimate_completion``);
        pass None to skip the ECT check (e.g. before any feedback exists).
        """
        refused = self.check(
            not queue.full, request.deadline_s, now, est_delay_s
        )
        if refused is not None:
            return refused
        return AdmissionDecision(
            "accept",
            "ok",
            None if est_delay_s is None else now + est_delay_s,
        )

    def check(
        self,
        has_room: bool,
        deadline_s: "float | None",
        now: float,
        est_delay_s: "float | None",
    ) -> "AdmissionDecision | None":
        """The admission rule: None when accepted, else the refusal.

        Counts the outcome either way.  :meth:`admit` applies it to one
        request and its queue; the frontend's run delivery applies it
        directly, with ``has_room`` read off its own count of the places
        left in the queue.
        """
        if not has_room:
            return self._refuse("queue_full", None)
        if deadline_s is not None and est_delay_s is not None:
            est_completion = now + est_delay_s * self.ect_margin
            if est_completion > deadline_s:
                return self._refuse("deadline_unmeetable", est_completion)
        self.n_accepted += 1
        return None

    def stats(self) -> dict:
        """Counters for the frontend's stats() rollup."""
        return {
            "accepted": self.n_accepted,
            "shed": self.n_shed,
            "degraded": self.n_degraded,
        }
