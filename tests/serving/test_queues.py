"""Per-model request queues: disciplines, bounds, deadline ordering."""

import dataclasses

import numpy as np
import pytest

from repro.errors import SchedulerError
from repro.serving import ServingFrontend, SLOConfig
from repro.serving.queues import EDFQueue, FIFOQueue, make_queue
from repro.workloads.requests import InferenceRequest, RequestTrace
from tests.serving.conftest import SERVING_SPECS, build_scheduler, queued


def entry(seq, arrival=0.0, batch=8, deadline=None, model="m"):
    return queued(
        InferenceRequest(
            request_id=seq, arrival_s=arrival, model=model, batch=batch,
            deadline_s=deadline,
        ),
        seq,
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

    @pytest.mark.parametrize("capacity", [1.5, True, float("nan")])
    @pytest.mark.parametrize("build", [
        lambda capacity: make_queue("fifo", "m", capacity=capacity),
        lambda capacity: make_queue("edf", "m", capacity=capacity),
        lambda capacity: EDFQueue("m", capacity=capacity),
    ], ids=["make_queue-fifo", "make_queue-edf", "EDFQueue"])
    def test_capacity_must_be_an_integer(self, build, capacity):
        with pytest.raises(ValueError, match="capacity"):
            build(capacity)


def recount(q):
    """The load counters a queue keeps, recomputed from its entries."""
    live = list(q)
    return (
        len(live),
        sum(e.batch for e in live),
        min((e.enqueued_s for e in live), default=None),
    )


def counters(q):
    return len(q), q.total_samples, q.oldest_enqueued_s()


def pop_upto_by_hand(q, max_samples):
    """The greedy take as one pop per entry."""
    taken = [q.pop()]
    samples = taken[0].batch
    while len(q) and samples < max_samples:
        if samples + q.peek().batch > max_samples:
            break
        taken.append(q.pop())
        samples += taken[-1].batch
    return taken


class TestBulkOps:
    """``push_many`` / ``pop_upto`` against one ``push`` / ``pop`` each."""

    @pytest.mark.parametrize("cls", [FIFOQueue, EDFQueue])
    @pytest.mark.parametrize("seed", range(6))
    def test_match_per_entry_ops(self, cls, seed):
        rng = np.random.default_rng(seed)
        bulk, single = cls("m"), cls("m")
        seq, now = 0, 0.0
        for _step in range(40):
            op = rng.integers(4)
            if op <= 1:
                # A run of arrivals at one instant; some are readmitted
                # entries that keep an older enqueue time.
                now += float(rng.integers(0, 3)) * 0.001
                run = []
                for _ in range(int(rng.integers(1, 8))):
                    enqueued = now
                    if rng.random() < 0.3:
                        enqueued = max(0.0, now - 0.001 * int(rng.integers(1, 4)))
                    deadline = None if rng.random() < 0.3 else now + float(rng.random())
                    run.append(queued(
                        InferenceRequest(
                            request_id=seq, arrival_s=enqueued,
                            model="m", batch=int(rng.choice([1, 8, 64, 300])),
                            deadline_s=deadline,
                        ),
                        seq,
                    ))
                    seq += 1
                bulk.push_many(run)
                for e in run:
                    single.push(e)
            elif op == 2 and len(single):
                cap = int(rng.choice([1, 16, 100, 1000]))
                taken = bulk.pop_upto(cap)
                assert [e.seq for e in taken] == [
                    e.seq for e in pop_upto_by_hand(single, cap)
                ]
            elif op == 3 and len(single):
                victim = list(single)[int(rng.integers(len(single)))]
                rid = victim.request.request_id
                assert bulk.remove(rid).seq == single.remove(rid).seq
            assert [e.seq for e in bulk] == [e.seq for e in single]
            assert counters(bulk) == counters(single) == recount(bulk)
        while len(single):
            assert bulk.pop().seq == single.pop().seq
            assert counters(bulk) == counters(single) == recount(bulk)

    @pytest.mark.parametrize("cls", [FIFOQueue, EDFQueue])
    def test_push_many_over_capacity_changes_nothing(self, cls):
        q = cls("m", capacity=3)
        q.push(entry(0))
        with pytest.raises(SchedulerError, match="capacity 3"):
            q.push_many([entry(1), entry(2), entry(3)])
        assert counters(q) == (1, 8, 0.0)
        q.push_many([entry(1), entry(2)])
        assert q.full

    @pytest.mark.parametrize("cls", [FIFOQueue, EDFQueue])
    def test_pop_upto_takes_an_oversized_head_alone(self, cls):
        q = cls("m")
        q.push_many([entry(0, batch=500), entry(1, batch=1)])
        assert [e.seq for e in q.pop_upto(64)] == [0]
        assert [e.seq for e in q.pop_upto(64)] == [1]
        with pytest.raises(SchedulerError):
            q.pop_upto(64)


_TIMER_SLO = SLOConfig(
    deadline_s=0.05, max_queue_depth=6, max_batch=256, max_wait_s=0.002,
)


def dense_trace(seed: int, n: int = 240) -> RequestTrace:
    """Runs of 1-40 same-instant arrivals of two models on a 1 ms grid."""
    rng = np.random.default_rng(seed)
    requests, t = [], 0.0
    while len(requests) < n:
        t += 0.001 * int(rng.integers(0, 4))
        for _ in range(int(rng.integers(1, 41))):
            requests.append(InferenceRequest(
                request_id=len(requests), arrival_s=t,
                model=str(rng.choice(list(SERVING_SPECS))),
                batch=int(rng.choice([1, 8, 64, 300])),
            ))
    return RequestTrace(requests=tuple(requests[:n]))


@pytest.mark.parametrize("discipline", ["fifo", "edf"])
def test_nonempty_queue_always_has_a_timer_armed(serving_predictors, discipline):
    """A non-empty queue has a flush timer armed no later than its oldest
    entry's max wait, after every event.  Run delivery pushes entries
    into a non-empty queue without arming one; this is why it may."""
    slo = dataclasses.replace(_TIMER_SLO, discipline=discipline)
    fe = ServingFrontend(
        build_scheduler(serving_predictors), SERVING_SPECS, default_slo=slo
    )
    fe.ingress.feed_requests(dense_trace(seed=5))
    checked = 0
    while fe.loop.pending:   # step the shared loop one event at a time
        fe.loop.run(max_events=1)
        for model, queue in fe._queues.items():
            if len(queue):
                armed = fe._timer_at[model]
                assert armed is not None
                assert armed <= queue.oldest_enqueued_s() + slo.max_wait_s
                checked += 1
    assert fe.n_pending == 0
    assert checked > 0
    assert fe.telemetry.snapshot()["shed"] > 0
