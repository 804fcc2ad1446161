"""Admission control: queue bounds, ECT rejection, degrade mode."""

import pytest

from repro.serving.admission import AdmissionController
from repro.serving.queues import FIFOQueue
from repro.workloads.requests import InferenceRequest
from tests.serving.conftest import queued


def request(deadline=None):
    return InferenceRequest(
        request_id=0, arrival_s=0.0, model="m", batch=8, deadline_s=deadline
    )


def filled_queue(n, capacity):
    q = FIFOQueue("m", capacity=capacity)
    for i in range(n):
        q.push(
            queued(
                InferenceRequest(request_id=i, arrival_s=0.0, model="m", batch=8),
                i,
            )
        )
    return q


class TestBounds:
    def test_accepts_with_headroom(self):
        ctl = AdmissionController()
        d = ctl.admit(request(), filled_queue(1, capacity=2), now=0.0)
        assert d.admitted and d.reason == "ok"
        assert ctl.n_accepted == 1

    def test_sheds_when_full(self):
        ctl = AdmissionController()
        d = ctl.admit(request(), filled_queue(2, capacity=2), now=0.0)
        assert d.action == "shed" and d.reason == "queue_full"
        assert ctl.n_shed == 1

    def test_unbounded_queue_never_full(self):
        ctl = AdmissionController()
        d = ctl.admit(request(), filled_queue(500, capacity=None), now=0.0)
        assert d.admitted


class TestECT:
    def test_rejects_unmeetable_deadline(self):
        ctl = AdmissionController()
        d = ctl.admit(
            request(deadline=0.1), filled_queue(0, 8), now=0.0, est_delay_s=0.5
        )
        assert d.action == "shed" and d.reason == "deadline_unmeetable"
        assert d.est_completion_s == pytest.approx(0.5)

    def test_accepts_meetable_deadline(self):
        ctl = AdmissionController()
        d = ctl.admit(
            request(deadline=1.0), filled_queue(0, 8), now=0.0, est_delay_s=0.5
        )
        assert d.admitted
        assert d.est_completion_s == pytest.approx(0.5)

    def test_best_effort_skips_ect(self):
        ctl = AdmissionController()
        d = ctl.admit(request(), filled_queue(0, 8), now=0.0, est_delay_s=100.0)
        assert d.admitted

    def test_cold_table_admits(self):
        """No estimate yet (cold start) -> optimistic accept."""
        ctl = AdmissionController()
        d = ctl.admit(request(deadline=0.01), filled_queue(0, 8), now=0.0,
                      est_delay_s=None)
        assert d.admitted

    def test_margin_sheds_earlier(self):
        ctl = AdmissionController(ect_margin=3.0)
        d = ctl.admit(
            request(deadline=1.0), filled_queue(0, 8), now=0.0, est_delay_s=0.5
        )
        assert d.action == "shed"


class TestDegrade:
    def test_degrade_instead_of_shed(self):
        ctl = AdmissionController(degrade=True)
        d = ctl.admit(request(), filled_queue(2, capacity=2), now=0.0)
        assert d.action == "degrade" and d.reason == "queue_full"
        assert ctl.n_degraded == 1 and ctl.n_shed == 0

    def test_stats(self):
        ctl = AdmissionController(degrade=True)
        ctl.admit(request(), filled_queue(0, 2), now=0.0)
        ctl.admit(request(), filled_queue(2, 2), now=0.0)
        assert ctl.stats() == {"accepted": 1, "shed": 0, "degraded": 1}


def test_invalid_margin():
    with pytest.raises(ValueError):
        AdmissionController(ect_margin=0.0)


@pytest.mark.parametrize("margin", [float("nan"), float("inf")])
def test_non_finite_margin_rejected(margin):
    # An infinite margin times a cold table's zero estimate is NaN, and
    # a NaN compare admits everything.
    with pytest.raises(ValueError, match="ect_margin"):
        AdmissionController(ect_margin=margin)


class TestCheck:
    """``check`` is the one admission rule; ``admit`` applies it."""

    def test_refusal_order_and_counters(self):
        ctl = AdmissionController()
        assert ctl.check(True, 1.0, now=0.0, est_delay_s=0.5) is None
        assert ctl.check(False, 1.0, now=0.0, est_delay_s=5.0).reason == "queue_full"
        late = ctl.check(True, 1.0, now=0.0, est_delay_s=2.0)
        assert (late.action, late.reason) == ("shed", "deadline_unmeetable")
        assert late.est_completion_s == 2.0
        assert ctl.check(True, None, now=0.0, est_delay_s=9.0) is None
        assert ctl.check(True, 1.0, now=0.0, est_delay_s=None) is None
        assert ctl.stats() == {"accepted": 3, "shed": 2, "degraded": 0}

    def test_admit_agrees_with_check(self):
        for n, capacity, deadline, est in [
            (0, 2, None, None), (2, 2, None, None), (0, 2, 1.0, 2.0),
            (1, 2, 1.0, 0.5),
        ]:
            a, b = AdmissionController(degrade=True), AdmissionController(degrade=True)
            queue = filled_queue(n, capacity)
            decision = a.admit(request(deadline), queue, 0.0, est_delay_s=est)
            refused = b.check(not queue.full, deadline, 0.0, est)
            assert decision.admitted == (refused is None)
            if refused is not None:
                assert (decision.action, decision.reason) == (
                    refused.action, refused.reason
                )
            assert a.stats() == b.stats()
