"""Per-model request queues: disciplines, bounds, deadline ordering."""

import pytest

from repro.errors import SchedulerError
from repro.serving.queues import EDFQueue, FIFOQueue, QueueEntry, make_queue
from repro.workloads.requests import InferenceRequest


def entry(seq, arrival=0.0, batch=8, deadline=None, model="m"):
    return QueueEntry(
        request=InferenceRequest(
            request_id=seq, arrival_s=arrival, model=model, batch=batch,
            deadline_s=deadline,
        ),
        enqueued_s=arrival,
        seq=seq,
    )


class TestFIFO:
    def test_pop_in_arrival_order(self):
        q = FIFOQueue("m")
        for i in range(5):
            q.push(entry(i, arrival=float(i)))
        assert [q.pop().seq for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_capacity_enforced(self):
        q = FIFOQueue("m", capacity=2)
        q.push(entry(0))
        q.push(entry(1))
        assert q.full
        with pytest.raises(SchedulerError):
            q.push(entry(2))

    def test_total_samples_and_oldest(self):
        q = FIFOQueue("m")
        q.push(entry(0, arrival=1.0, batch=10))
        q.push(entry(1, arrival=0.5, batch=30))
        assert q.total_samples == 40
        assert q.oldest_enqueued_s() == 0.5

    def test_empty_queue_ops_raise(self):
        q = FIFOQueue("m")
        assert q.oldest_enqueued_s() is None
        with pytest.raises(SchedulerError):
            q.pop()
        with pytest.raises(SchedulerError):
            q.peek()


class TestEDF:
    def test_pop_by_deadline(self):
        q = EDFQueue("m")
        q.push(entry(0, deadline=3.0))
        q.push(entry(1, deadline=1.0))
        q.push(entry(2, deadline=2.0))
        assert [q.pop().seq for _ in range(3)] == [1, 2, 0]

    def test_deadline_less_ranks_last(self):
        q = EDFQueue("m")
        q.push(entry(0))                  # best effort
        q.push(entry(1, deadline=9.0))
        assert q.pop().seq == 1

    def test_degrades_to_fifo_without_deadlines(self):
        q = EDFQueue("m")
        for i in range(4):
            q.push(entry(i))
        assert [q.pop().seq for _ in range(4)] == [0, 1, 2, 3]

    def test_iteration_is_pop_order(self):
        q = EDFQueue("m")
        q.push(entry(0, deadline=2.0))
        q.push(entry(1, deadline=1.0))
        assert [e.seq for e in q] == [1, 0]
        assert len(q) == 2  # iteration does not consume


class TestCounters:
    """The O(1) load counters must track brute-force recomputation across
    arbitrary push/pop interleavings (they feed the frontend's load
    counters and so every balancing policy; drift here silently skews
    routing)."""

    @pytest.mark.parametrize("cls", [FIFOQueue, EDFQueue])
    def test_track_brute_force_under_interleaving(self, cls):
        q = cls("m")
        arrivals = [0.3, 0.1, 0.1, 0.7, 0.0, 0.5, 0.2, 0.1]
        seq = 0

        def check():
            live = list(q)
            assert q.total_samples == sum(e.batch for e in live)
            if live:
                assert q.oldest_enqueued_s() == min(e.enqueued_s for e in live)
            else:
                assert q.oldest_enqueued_s() is None

        for i, arrival in enumerate(arrivals):
            q.push(entry(seq, arrival=arrival, batch=seq + 1,
                         deadline=10.0 - seq))
            seq += 1
            if i % 3 == 2:     # pop mid-stream: EDF removes from the middle
                q.pop()        # of the arrival heap, not its head
            check()
        while len(q):
            q.pop()
            check()

    def test_oldest_is_robust_to_duplicate_keys(self):
        # A drained-and-readopted entry can re-enter a queue carrying the
        # same (enqueued_s, seq) key it was popped under; the lazy-deletion
        # bookkeeping must not evict the live duplicate.
        q = FIFOQueue("m")
        e = entry(0, arrival=1.0)
        q.push(e)
        q.push(entry(1, arrival=2.0))
        q.pop()                      # removes (1.0, 0) lazily
        q.push(e)                    # same key re-enters live
        assert q.oldest_enqueued_s() == 1.0
        assert q.total_samples == 16
        q.pop()                      # pops seq 1 (FIFO order)
        assert q.oldest_enqueued_s() == 1.0
        q.pop()
        assert q.oldest_enqueued_s() is None
        assert q.total_samples == 0

    def test_edf_iteration_view_invalidates_on_mutation(self):
        q = EDFQueue("m")
        q.push(entry(0, deadline=2.0))
        q.push(entry(1, deadline=1.0))
        assert [e.seq for e in q] == [1, 0]
        assert [e.seq for e in q] == [1, 0]  # repeat: served from the memo
        q.push(entry(2, deadline=0.5))       # mutation drops the memo
        assert [e.seq for e in q] == [2, 1, 0]
        q.pop()
        assert [e.seq for e in q] == [1, 0]
        assert [q.pop().seq for _ in range(2)] == [1, 0]  # iter didn't consume


class TestEntry:
    def test_slack(self):
        e = entry(0, arrival=1.0, deadline=2.5)
        assert e.slack_s(2.0) == pytest.approx(0.5)
        assert e.slack_s(3.0) == pytest.approx(-0.5)
        assert entry(1).slack_s(0.0) == float("inf")


class TestFactory:
    def test_make_queue(self):
        assert isinstance(make_queue("fifo", "m"), FIFOQueue)
        assert isinstance(make_queue("edf", "m", capacity=4), EDFQueue)

    def test_unknown_discipline(self):
        with pytest.raises(ValueError, match="unknown queue discipline"):
            make_queue("lifo", "m")

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            FIFOQueue("m", capacity=0)
