"""Outcome feedback table."""

import pytest

from repro.errors import SchedulerError
from repro.nn.zoo import MNIST_SMALL
from repro.ocl.context import Context
from repro.ocl.platform import get_all_devices
from repro.sched.backlog import BacklogAwareScheduler
from repro.sched.dispatcher import Dispatcher
from repro.sched.feedback import CellKey, OutcomeTable, batch_bucket
from repro.sched.scheduler import OnlineScheduler
from repro.telemetry.serving import BatchHistogram

#: (batch, floor(log2(batch))) where a float log2 rounds up a bucket.
LARGE_BATCHES = [(2**49 - 1, 48), (2**49, 49), (2**53, 53)]


class TestCellKey:
    def test_bucketing(self):
        assert CellKey.of("m", 1, "warm").batch_bucket == 0
        assert CellKey.of("m", 1023, "warm").batch_bucket == 9
        assert CellKey.of("m", 1024, "warm").batch_bucket == 10

    def test_same_bucket_same_cell(self):
        assert CellKey.of("m", 1100, "idle") == CellKey.of("m", 2000, "idle")

    def test_state_distinguishes(self):
        assert CellKey.of("m", 8, "warm") != CellKey.of("m", 8, "idle")

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            CellKey.of("m", 0, "warm")


class TestBatchBucket:
    @pytest.mark.parametrize("batch, bucket", LARGE_BATCHES)
    def test_large_batches_are_exact(self, batch, bucket):
        assert batch_bucket(batch) == bucket
        assert CellKey.of("m", batch, "warm").batch_bucket == bucket
        histogram = BatchHistogram()
        histogram.add(batch)
        assert histogram.counts == {bucket: 1}

    @pytest.mark.parametrize("batch", [0, -1])
    def test_non_positive_rejected(self, batch):
        with pytest.raises(ValueError, match="batch must be positive"):
            batch_bucket(batch)


@pytest.fixture()
def table():
    return OutcomeTable(alpha=0.5, ttl_s=10.0)


CELL = CellKey.of("mnist-small", 1024, "warm")


class TestObserve:
    def test_first_observation_taken_verbatim(self, table):
        table.observe(CELL, "cpu", 100.0, now=0.0)
        assert table.estimate(CELL, "cpu", now=1.0).value == 100.0

    def test_ewma_blending(self, table):
        table.observe(CELL, "cpu", 100.0, now=0.0)
        table.observe(CELL, "cpu", 200.0, now=1.0)
        assert table.estimate(CELL, "cpu", now=2.0).value == pytest.approx(150.0)

    def test_sample_count(self, table):
        for i in range(3):
            table.observe(CELL, "cpu", 100.0, now=float(i))
        assert table.estimate(CELL, "cpu", now=3.0).n_samples == 3

    def test_stale_observation_resets(self, table):
        table.observe(CELL, "cpu", 100.0, now=0.0)
        table.observe(CELL, "cpu", 500.0, now=100.0)  # past ttl: fresh start
        assert table.estimate(CELL, "cpu", now=101.0).value == 500.0


class TestFreshness:
    def test_estimate_expires(self, table):
        table.observe(CELL, "cpu", 100.0, now=0.0)
        assert table.estimate(CELL, "cpu", now=5.0) is not None
        assert table.estimate(CELL, "cpu", now=11.0) is None

    def test_fresh_devices(self, table):
        table.observe(CELL, "cpu", 1.0, now=0.0)
        table.observe(CELL, "dgpu", 2.0, now=9.0)
        assert table.estimate(CELL, "cpu", now=10.5) is None
        assert table.estimate(CELL, "dgpu", now=10.5).value == 2.0


@pytest.fixture()
def backlog(trained_predictors):
    """All three devices eligible, 10 s service-time TTL."""
    ctx = Context(get_all_devices())
    dispatcher = Dispatcher(ctx)
    dispatcher.deploy_fresh(MNIST_SMALL, rng=0)
    base = OnlineScheduler(ctx, dispatcher, trained_predictors)
    return BacklogAwareScheduler(base, max_rank=3, service_ttl_s=10.0)


def observe(backlog, device, now):
    state = backlog.scheduler.probe_gpu_state(now=now)
    backlog.record_service("mnist-small", 1024, state, device, 1.0, now=now)


class TestExplorationTarget:
    """The table's freshness drives exploration: a device without a fresh
    estimate is costed at zero service, so placement probes it."""

    def test_unmeasured_device_preferred(self, backlog):
        observe(backlog, "cpu", 0.0)
        observe(backlog, "dgpu", 5.0)
        device, _ = backlog.estimate_completion(MNIST_SMALL, 1024, 6.0)
        assert device == "igpu"

    def test_oldest_measured_next(self, backlog):
        observe(backlog, "cpu", 0.0)
        observe(backlog, "dgpu", 5.0)
        observe(backlog, "igpu", 5.0)
        device, _ = backlog.estimate_completion(MNIST_SMALL, 1024, 10.5)
        assert device == "cpu"   # its estimate aged out first

    def test_empty_devices_rejected(self, backlog):
        with pytest.raises(SchedulerError, match="no device"):
            backlog.set_device_mask(set())


class TestValidation:
    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            OutcomeTable(alpha=0.0)

    def test_bad_ttl(self):
        with pytest.raises(ValueError):
            OutcomeTable(ttl_s=-1.0)

    def test_counters(self, table):
        table.observe(CELL, "cpu", 1.0, now=0.0)
        table.observe(CELL, "dgpu", 1.0, now=0.0)
        other = CellKey.of("simple", 8, "idle")
        table.observe(other, "cpu", 1.0, now=0.0)
        assert len(table) == 3
        assert table.n_cells == 2


class TestFieldChecks:
    """Each refused value would leave an estimate that never ages out (a
    NaN or infinite TTL or ``updated_at``) or a rank span that is not a
    count; every error names its field."""

    @pytest.mark.parametrize("ttl_s", [float("nan"), float("inf")])
    def test_table_ttl_must_be_finite(self, ttl_s):
        with pytest.raises(ValueError, match="ttl_s"):
            OutcomeTable(ttl_s=ttl_s)

    @pytest.mark.parametrize("now", [float("nan"), float("inf")])
    def test_observe_now_must_be_finite(self, table, now):
        with pytest.raises(ValueError, match="now"):
            table.observe(CELL, "cpu", 1.0, now=now)
        assert table.estimate(CELL, "cpu", now=1e6) is None

    @pytest.mark.parametrize("ttl_s", [float("nan"), float("inf")])
    def test_backlog_service_ttl_must_be_finite(self, backlog, ttl_s):
        with pytest.raises(ValueError, match="service_ttl_s"):
            BacklogAwareScheduler(backlog.scheduler, service_ttl_s=ttl_s)

    @pytest.mark.parametrize("now", [float("nan"), float("inf")])
    def test_record_service_now_must_be_finite(self, backlog, now):
        with pytest.raises(ValueError, match="now"):
            backlog.record_service("mnist-small", 1024, "warm", "cpu", 1.0, now=now)
        assert backlog.service_estimate("mnist-small", 1024, "warm", "cpu", 1e6) is None

    @pytest.mark.parametrize("max_rank", [1.5, True])
    def test_max_rank_must_be_a_count(self, backlog, max_rank):
        with pytest.raises(ValueError, match="max_rank"):
            BacklogAwareScheduler(backlog.scheduler, max_rank=max_rank)
