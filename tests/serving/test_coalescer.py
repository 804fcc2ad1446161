"""Batch coalescing triggers: full-batch, max-wait, and take semantics."""

import pytest

from repro.serving.coalescer import BatchCoalescer, CoalescedBatch
from repro.serving.queues import FIFOQueue
from repro.workloads.requests import InferenceRequest
from tests.serving.conftest import queued


def entry(seq, arrival=0.0, batch=8, model="m"):
    return queued(
        InferenceRequest(
            request_id=seq, arrival_s=arrival, model=model, batch=batch
        ),
        seq,
    )


@pytest.fixture()
def queue():
    return FIFOQueue("m")


class TestTriggers:
    def test_full_fires_at_max_batch(self, queue):
        co = BatchCoalescer(queue, max_batch=64, max_wait_s=1.0)
        queue.push(entry(0, batch=32))
        assert co.ready(0.0) is None
        queue.push(entry(1, batch=32))
        assert co.ready(0.0) == "full"   # immediately, no wait needed

    def test_timeout_fires_after_max_wait(self, queue):
        co = BatchCoalescer(queue, max_batch=1024, max_wait_s=0.5)
        queue.push(entry(0, arrival=1.0, batch=8))
        assert co.ready(1.0) is None
        assert co.ready(1.49) is None
        assert co.ready(1.5) == "timeout"
        assert co.next_flush_at() == pytest.approx(1.5)

    def test_full_dominates_timeout(self, queue):
        co = BatchCoalescer(queue, max_batch=8, max_wait_s=0.1)
        queue.push(entry(0, arrival=0.0, batch=8))
        assert co.ready(5.0) == "full"

    def test_empty_queue_never_ready(self, queue):
        co = BatchCoalescer(queue, max_batch=8, max_wait_s=0.1)
        assert co.ready(100.0) is None
        assert co.next_flush_at() is None


class TestTake:
    def test_take_merges_up_to_max_batch(self, queue):
        co = BatchCoalescer(queue, max_batch=64, max_wait_s=1.0)
        for i in range(5):
            queue.push(entry(i, batch=16))
        batch = co.take(0.0, "full")
        assert batch.total_samples == 64
        assert [e.seq for e in batch.entries] == [0, 1, 2, 3]
        assert len(queue) == 1            # overflow entry stays queued

    def test_oversized_single_request_forms_own_batch(self, queue):
        co = BatchCoalescer(queue, max_batch=64, max_wait_s=1.0)
        queue.push(entry(0, batch=500))
        batch = co.take(0.0, "timeout")
        assert batch.total_samples == 500
        assert len(batch) == 1

    def test_overflowing_entry_not_split(self, queue):
        co = BatchCoalescer(queue, max_batch=64, max_wait_s=1.0)
        queue.push(entry(0, batch=48))
        queue.push(entry(1, batch=48))
        batch = co.take(0.0, "timeout")
        assert [e.seq for e in batch.entries] == [0]
        assert queue.peek().seq == 1

    def test_take_empty_raises(self, queue):
        co = BatchCoalescer(queue, max_batch=64, max_wait_s=1.0)
        with pytest.raises(ValueError):
            co.take(0.0, "timeout")

    def test_batch_metadata(self, queue):
        co = BatchCoalescer(queue, max_batch=64, max_wait_s=1.0)
        queue.push(entry(0, arrival=0.5, batch=8))
        queue.push(
            queued(
                InferenceRequest(
                    request_id=1, arrival_s=0.7, model="m", batch=8, deadline_s=1.0
                ),
                1,
            )
        )
        batch = co.take(0.8, "timeout")
        assert batch.formed_s == 0.8
        assert batch.trigger == "timeout"
        assert batch.oldest_enqueued_s == 0.5
        assert batch.earliest_deadline_s == 1.0


class TestValidation:
    def test_bad_params(self, queue):
        with pytest.raises(ValueError):
            BatchCoalescer(queue, max_batch=0, max_wait_s=0.1)
        with pytest.raises(ValueError):
            BatchCoalescer(queue, max_batch=8, max_wait_s=-1.0)

    @pytest.mark.parametrize("field, kwargs", [
        ("max_batch", {"max_batch": 1.5, "max_wait_s": 0.1}),
        ("max_batch", {"max_batch": True, "max_wait_s": 0.1}),
        ("max_wait_s", {"max_batch": 8, "max_wait_s": float("nan")}),
        ("max_wait_s", {"max_batch": 8, "max_wait_s": float("inf")}),
    ])
    def test_non_integer_and_non_finite_knobs(self, queue, field, kwargs):
        # A NaN wait never times out; an infinite one arms a timer the
        # event loop refuses.
        with pytest.raises(ValueError, match=field):
            BatchCoalescer(queue, **kwargs)

    def test_batch_rejects_empty_and_mixed_models(self):
        with pytest.raises(ValueError):
            CoalescedBatch(model="m", entries=(), formed_s=0.0, trigger="full")
        with pytest.raises(ValueError):
            CoalescedBatch(
                model="other", entries=(entry(0),), formed_s=0.0, trigger="full"
            )


def test_total_samples_is_the_sum_of_batches():
    entries = tuple(entry(i, batch=b) for i, b in enumerate([3, 1, 64, 7]))
    batch = CoalescedBatch(model="m", entries=entries, formed_s=0.0, trigger="full")
    assert batch.total_samples == sum(e.batch for e in entries) == 75
    assert len(batch) == 4
