"""Online predictor refresh: drift detection, fallback routing, live refits.

The contract under test: with a plain ``DevicePredictor`` everything here
is inert (``online_stats`` is None, routing is byte-identical); with an
``OnlinePredictor`` installed, a sustained residual shift flags the cell,
routing degrades to backlog-only fallback, a refit plus in-band residuals
recover it, and every transition is deterministic.
"""

import math

import pytest

from repro.errors import SchedulerError
from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.ocl.context import Context
from repro.ocl.platform import get_all_devices
from repro.sched.backlog import BacklogAwareScheduler
from repro.sched.dataset import generate_dataset
from repro.sched.dispatcher import Dispatcher
from repro.sched.feedback import CellKey, OutcomeTable
from repro.sched.online import (
    DriftKey,
    OnlineConfig,
    OnlineEvents,
    OnlinePredictor,
    PageHinkley,
)
from repro.sched.policies import Policy
from repro.sched.predictor import DevicePredictor, batch_interval
from repro.sched.scheduler import OnlineScheduler
from repro.telemetry.serving import ServingTelemetry

SPECS = {SIMPLE.name: SIMPLE, MNIST_SMALL.name: MNIST_SMALL}

#: Fast-cycling knobs so a ~20-observation scenario exercises the whole
#: flag -> refit -> recovery lifecycle.
FAST = OnlineConfig(refit_interval=16, drift_min_samples=3, recovery_samples=3)


def make_online(dataset, config=None) -> OnlinePredictor:
    """A fresh OnlinePredictor over its own freshly-fitted base."""
    base = DevicePredictor(Policy.THROUGHPUT).fit(dataset)
    return OnlinePredictor(base, SPECS, dataset, config)


def make_backlog(predictors, **kwargs) -> BacklogAwareScheduler:
    ctx = Context(get_all_devices())
    dispatcher = Dispatcher(ctx)
    for spec in (SIMPLE, MNIST_SMALL):
        dispatcher.deploy_fresh(spec, rng=0)
    return BacklogAwareScheduler(
        OnlineScheduler(ctx, dispatcher, predictors), **kwargs
    )


def seed_normal(bl, n=10):
    """Warm the ("simple", 64, "warm") cell: dGPU fast, CPU slow."""
    for i in range(n):
        t = i * 0.01
        bl.record_service("simple", 64, "warm", "dgpu", 0.005, now=t)
        bl.record_service("simple", 64, "warm", "cpu", 0.02, now=t)


def throttle_dgpu(bl, n=12, start=1.0, service_s=0.04):
    """A silent 8x slowdown on the dGPU stream (post-seed)."""
    for i in range(n):
        bl.record_service(
            "simple", 64, "warm", "dgpu", service_s, now=start + i * 0.01
        )


class TestConfig:
    def test_defaults_are_valid(self):
        OnlineConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 0},
            {"refit_interval": 0},
            {"min_live_cells": 0},
            {"drift_delta": -0.1},
            {"drift_threshold": 0.0},
            {"drift_min_samples": 0},
            {"recovery_band": 0.0},
            {"recovery_samples": 0},
        ],
    )
    def test_invalid_knobs_raise(self, kwargs):
        with pytest.raises(ValueError):
            OnlineConfig(**kwargs)


class TestPageHinkley:
    def test_constant_stream_never_alarms(self):
        ph = PageHinkley(delta=0.25, threshold=0.5, min_samples=1)
        assert not any(ph.update(0.0) for _ in range(500))
        assert ph.statistic == 0.0

    def test_noise_within_delta_never_alarms(self):
        """Alternating +/-0.2 around zero: each one-sided excursion is
        below delta, and sign flips drain whatever slack accumulates."""
        ph = PageHinkley(delta=0.25, threshold=0.5, min_samples=1)
        assert not any(
            ph.update(0.2 if i % 2 else -0.2) for i in range(500)
        )

    def test_upward_step_alarms(self):
        ph = PageHinkley(delta=0.25, threshold=0.5, min_samples=3)
        for _ in range(20):
            assert not ph.update(0.0)
        assert ph.update(1.0)
        assert ph.statistic > ph.threshold

    def test_downward_step_alarms_too(self):
        ph = PageHinkley(delta=0.25, threshold=0.5, min_samples=3)
        for _ in range(20):
            assert not ph.update(0.0)
        assert ph.update(-1.0)

    def test_min_samples_gates_the_alarm(self):
        ph = PageHinkley(delta=0.1, threshold=0.5, min_samples=5)
        for _ in range(3):
            assert not ph.update(0.0)
        assert not ph.update(10.0)  # n=4: statistic is over, the gate holds
        assert ph.statistic > ph.threshold
        assert ph.update(10.0)      # n=5: gate opens

    def test_reset_forgets_everything(self):
        ph = PageHinkley(delta=0.1, threshold=0.5, min_samples=1)
        for _ in range(5):
            ph.update(10.0)
        ph.reset()
        assert ph.n == 0
        assert ph.statistic == 0.0
        assert not ph.update(0.0)


class TestDriftKey:
    def test_label_is_stable(self):
        assert DriftKey("simple", "dgpu", 6).label() == "simple|dgpu|b6"

    def test_no_events_sentinel(self):
        assert not OnlineEvents().any
        assert OnlineEvents(refit=True).any
        assert OnlineEvents(flagged=(DriftKey("m", "cpu", 0),)).any


class TestDelegation:
    def test_decision_surface_matches_base(self, online_dataset):
        online = make_online(online_dataset)
        base = online.base
        for spec in (SIMPLE, MNIST_SMALL):
            for batch in (1, 64, 16384):
                assert online.predict_device(spec, batch, "warm") == (
                    base.predict_device(spec, batch, "warm")
                )
                assert online.predict_index(spec, batch, "idle") == (
                    base.predict_index(spec, batch, "idle")
                )
        assert online.policy is base.policy
        assert online.estimator is base.estimator

    def test_fit_generation_tracks_base(self, online_dataset):
        online = make_online(online_dataset)
        before = online.fit_generation
        online.fit(online_dataset)
        assert online.fit_generation == before + 1 == online.base.fit_generation

    def test_is_online_marker(self, online_dataset):
        online = make_online(online_dataset)
        assert getattr(online, "is_online", False)
        assert not getattr(online.base, "is_online", False)

    def test_unfitted_base_rejected(self, online_dataset):
        with pytest.raises(SchedulerError):
            OnlinePredictor(
                DevicePredictor(Policy.THROUGHPUT), SPECS, online_dataset
            )

    def test_policy_mismatched_dataset_rejected(self, online_dataset):
        energy = generate_dataset("energy", specs=[SIMPLE], batches=(1, 64))
        base = DevicePredictor(Policy.THROUGHPUT).fit(online_dataset)
        with pytest.raises(SchedulerError):
            OnlinePredictor(base, SPECS, energy)


class TestObserve:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.001])
    def test_non_finite_service_rejected(self, online_dataset, bad):
        online = make_online(online_dataset)
        with pytest.raises(ValueError):
            online.observe("simple", 64, "warm", "dgpu", bad, 0.005, now=0.0)

    def test_cold_cell_feeds_window_not_drift(self, online_dataset):
        online = make_online(online_dataset, FAST)
        events = online.observe(
            "simple", 64, "warm", "dgpu", 0.005, predicted_s=None, now=0.0
        )
        assert not events.any
        snap = online.snapshot()
        assert snap["observations"] == 1
        assert snap["window_fill"] == 1
        assert snap["cell_errors"] == {}

    def test_unknown_model_observed_but_never_relabelled(self, online_dataset):
        """Models absent from the spec table still drive drift detection,
        but every refit attempt skips (their features cannot be encoded)."""
        config = OnlineConfig(refit_interval=4, drift_min_samples=3)
        online = make_online(online_dataset, config)
        gen = online.fit_generation
        for i in range(12):
            online.observe(
                "ghost", 64, "warm", "dgpu", 0.005, predicted_s=0.005, now=i * 0.01
            )
            online.observe(
                "ghost", 64, "warm", "cpu", 0.02, predicted_s=0.02, now=i * 0.01
            )
        assert online.fit_generation == gen
        assert online.n_refit_skips > 0
        assert online.n_refits == 0

    def test_window_is_bounded(self, online_dataset):
        config = OnlineConfig(window=8, refit_interval=1000)
        online = make_online(online_dataset, config)
        for i in range(32):
            online.observe(
                "simple", 64, "warm", "cpu", 0.02, predicted_s=0.02, now=i * 0.01
            )
        assert online.snapshot()["window_fill"] == 8


class TestRefit:
    def test_two_device_cells_trigger_refit(self, online_dataset):
        online = make_online(online_dataset, FAST)
        gen = online.fit_generation
        refit_seen = False
        for i in range(FAST.refit_interval):
            e1 = online.observe(
                "simple", 64, "warm", "dgpu", 0.005, predicted_s=0.005, now=i * 0.01
            )
            e2 = online.observe(
                "simple", 64, "warm", "cpu", 0.02, predicted_s=0.02, now=i * 0.01
            )
            refit_seen = refit_seen or e1.refit or e2.refit
        assert refit_seen
        assert online.n_refits >= 1
        assert online.fit_generation > gen

    def test_single_device_window_skips(self, online_dataset):
        online = make_online(online_dataset, FAST)
        gen = online.fit_generation
        for i in range(2 * FAST.refit_interval):
            online.observe(
                "simple", 64, "warm", "dgpu", 0.005, predicted_s=0.005, now=i * 0.01
            )
        assert online.n_refits == 0
        assert online.n_refit_skips >= 2
        assert online.fit_generation == gen


class TestLifecycle:
    def test_flag_fallback_refit_recovery(self, online_dataset):
        predictors = {Policy.THROUGHPUT: make_online(online_dataset, FAST)}
        bl = make_backlog(predictors)
        online = predictors[Policy.THROUGHPUT]

        seed_normal(bl)
        assert not online.is_stale("simple", 64)
        ranked, limit, fallback = bl._routing_plan(SIMPLE, 64, "warm")
        assert not fallback
        assert limit == bl.max_rank

        throttle_dgpu(bl)
        assert online.n_drift_flags >= 1
        assert online.is_stale("simple", 64)
        assert any(k.device == "dgpu" for k in online.active_flags)

        # Routing degrades: canonical order, every class eligible.
        ranked, limit, fallback = bl._routing_plan(SIMPLE, 64, "warm")
        assert fallback
        assert ranked == ("cpu", "dgpu", "igpu")
        assert limit == len(ranked)

        # Decisions under the flag are counted as fallback occupancy.
        bl.decide(SIMPLE, 64, arrival_s=2.0)
        stats = bl.online_stats()
        assert stats["fallback_decisions"] >= 1
        assert stats["fallback_occupancy"] > 0.0

        # Keep observing at the throttled level: refits roll in, the
        # outcome-table estimate converges to 0.04, residuals re-enter the
        # band, and the flag clears.
        throttle_dgpu(bl, n=40, start=3.0)
        for i in range(40):
            bl.record_service("simple", 64, "warm", "cpu", 0.02, now=5.0 + i * 0.01)
        assert online.n_recoveries >= 1
        assert not online.is_stale("simple", 64)
        ranked, limit, fallback = bl._routing_plan(SIMPLE, 64, "warm")
        assert not fallback

    def test_recovery_requires_a_refit_first(self, online_dataset):
        """In-band residuals alone never clear a flag: the forest that
        mis-ranked the device must be refit before it is trusted again."""
        config = OnlineConfig(
            refit_interval=10_000, drift_min_samples=3, recovery_samples=3
        )
        online = make_online(online_dataset, config)
        for i in range(10):
            online.observe(
                "simple", 64, "warm", "dgpu", 0.005, predicted_s=0.005, now=i * 0.01
            )
        online.observe(
            "simple", 64, "warm", "dgpu", 0.04, predicted_s=0.005, now=1.0
        )
        assert online.is_stale("simple", 64)
        for i in range(20):
            online.observe(
                "simple", 64, "warm", "dgpu", 0.04, predicted_s=0.04, now=2.0 + i * 0.01
            )
        assert online.is_stale("simple", 64)
        assert online.n_recoveries == 0

    def test_large_batch_flags_its_exact_bucket(self, online_dataset):
        config = OnlineConfig(
            refit_interval=10_000, drift_min_samples=3, recovery_samples=3
        )
        online = make_online(online_dataset, config)
        big = 2**49 - 1                     # float log2 rounds this to 49
        for i in range(10):
            online.observe(
                "simple", big, "warm", "dgpu", 0.005, predicted_s=0.005, now=i * 0.01
            )
        online.observe("simple", big, "warm", "dgpu", 0.04, predicted_s=0.005, now=1.0)
        assert [k.batch_bucket for k in online.active_flags] == [48]
        assert online.is_stale("simple", 2**48)
        assert not online.is_stale("simple", 2**49)

    def test_flag_drops_every_interval_of_its_bucket_only(self, online_dataset):
        bl = make_backlog({Policy.THROUGHPUT: make_online(online_dataset)})
        cuts = bl.scheduler.predictors[Policy.THROUGHPUT].batch_cuts()
        # Bucket 6 is [64, 128); 128 opens bucket 7.
        batches = (64, 100, 127, 128)
        for batch in batches:
            for state in ("warm", "idle"):
                bl._entry_for(SIMPLE, batch, state)
        bl._entry_for(MNIST_SMALL, 64, "warm")
        keys = set(bl._entries)
        bl._apply_online_events(
            OnlineEvents(flagged=(DriftKey("simple", "dgpu", 6),))
        )
        dropped = keys - set(bl._entries)
        assert dropped == {k for k in keys if k[0] == "simple" and k[2] == 6}
        assert len(dropped) == 2 * len({batch_interval(cuts, b) for b in batches[:3]})
        assert bl.cache_stats()["drift_invalidations"] == len(dropped)

    def test_drift_invalidations_counted(self, online_dataset):
        predictors = {Policy.THROUGHPUT: make_online(online_dataset, FAST)}
        bl = make_backlog(predictors)
        seed_normal(bl)
        # Populate the cache for the cell that is about to be flagged.
        bl.estimate_completion(SIMPLE, 64, arrival_s=0.5)
        throttle_dgpu(bl)
        assert bl.cache_stats()["drift_invalidations"] >= 1
        assert bl.online_stats()["drift_invalidations"] >= 1


class TestStatsSurfaces:
    def test_online_stats_none_with_plain_predictor(self, trained_predictors):
        bl = make_backlog(trained_predictors)
        assert bl.online_stats() is None

    def test_online_stats_shape(self, online_dataset):
        predictors = {Policy.THROUGHPUT: make_online(online_dataset, FAST)}
        bl = make_backlog(predictors)
        seed_normal(bl, n=3)
        bl.decide(SIMPLE, 64, arrival_s=0.5)
        stats = bl.online_stats()
        assert stats["decisions"] == 1
        assert stats["fallback_decisions"] == 0
        assert stats["fallback_occupancy"] == 0.0
        snap = stats["predictor"]
        assert snap["observations"] == 6
        cell = snap["cell_errors"]["simple|dgpu|b6"]
        assert cell["n"] == 2  # first observation per device is cold
        assert cell["abs_rel_err_p50"] == pytest.approx(0.0)
        assert not cell["flagged"]

    def test_serving_telemetry_gates_online_block(self):
        t = ServingTelemetry()
        assert "online" not in t.snapshot()
        t.online = lambda: None
        assert "online" not in t.snapshot()
        t.online = lambda: {"decisions": 3}
        assert t.snapshot()["online"] == {"decisions": 3}


class TestFeedbackGuards:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_record_service_rejects_non_finite(self, trained_predictors, bad):
        bl = make_backlog(trained_predictors)
        with pytest.raises(ValueError):
            bl.record_service("simple", 64, "warm", "cpu", bad, now=0.0)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), -1.0]
    )
    def test_outcome_table_rejects_non_finite(self, bad):
        table = OutcomeTable()
        with pytest.raises(ValueError):
            table.observe(CellKey.of("simple", 64, "warm"), "cpu", bad, now=0.0)
