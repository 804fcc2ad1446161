"""Repartitioner: SLO-tail-driven split/merge of one accelerator."""

import pytest

from repro.errors import SchedulerError
from repro.nn.zoo import SIMPLE
from repro.partition import (
    PartitionedAccelerator,
    Repartitioner,
    RepartitionerConfig,
)

from tests.partition.conftest import build_frontend, make_tenants


class TestConfig:
    def test_defaults_validate(self):
        cfg = RepartitionerConfig()
        assert cfg.min_mode == 1 and cfg.max_mode == 8

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"check_every_s": 0.0}, "check_every_s"),
            ({"cooldown_s": -1.0}, "cooldown_s"),
            ({"p99_factor": 0.0}, "p99_factor"),
            ({"merge_factor": 0.0}, "merge_factor"),
            ({"merge_factor": 2.0}, "merge_factor"),
            ({"min_mode": 0}, "min_mode"),
            ({"min_mode": 4, "max_mode": 2}, "max_mode"),
        ],
    )
    def test_bad_values_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RepartitionerConfig(**kwargs)


class TestGating:
    def test_requires_tenants(self, frontend, pspec):
        accel = PartitionedAccelerator(frontend, pspec)
        with pytest.raises(SchedulerError, match="tenant"):
            Repartitioner(accel)

    def test_requires_a_latency_tenant(self, serving_predictors, pspec):
        from repro.nn.zoo import MNIST_SMALL
        from repro.partition import TenantSet, TenantSpec

        tenants = TenantSet(
            [TenantSpec("bulk", models=(MNIST_SMALL.name,), kind="batch")]
        )
        fe = build_frontend(serving_predictors, tenants=tenants)
        accel = PartitionedAccelerator(fe, pspec)
        with pytest.raises(SchedulerError, match="latency tenant"):
            Repartitioner(accel)


class TestDecisions:
    def make(self, serving_predictors, pspec, slo_s=0.05, **cfg):
        fe = build_frontend(serving_predictors, tenants=make_tenants(slo_s))
        accel = PartitionedAccelerator(fe, pspec)
        config = RepartitionerConfig(
            check_every_s=0.01, cooldown_s=0.0, **cfg
        )
        return fe, accel, Repartitioner(accel, config)

    def record(self, fe, latency_s, n=20):
        fe.telemetry.tenants["rt"].record_served([latency_s] * n, [False] * n)

    def test_no_samples_no_action(self, serving_predictors, pspec):
        _, accel, rp = self.make(serving_predictors, pspec)
        assert rp.check() is None
        assert accel.mode == 1

    def test_breached_tail_splits(self, serving_predictors, pspec):
        fe, accel, rp = self.make(serving_predictors, pspec, slo_s=0.05)
        self.record(fe, latency_s=0.2)  # 4x over the SLO
        assert rp.check() == "split"
        assert accel.mode == 2
        assert rp.n_splits == 1

    def test_comfortable_tail_merges(self, serving_predictors, pspec):
        fe, accel, rp = self.make(serving_predictors, pspec, slo_s=0.05)
        accel.set_mode(4)
        self.record(fe, latency_s=0.001)  # far inside merge_factor * slo
        assert rp.check() == "merge"
        assert accel.mode == 2
        assert rp.n_merges == 1

    def test_mid_band_holds(self, serving_predictors, pspec):
        fe, accel, rp = self.make(serving_predictors, pspec, slo_s=0.05)
        accel.set_mode(2)
        self.record(fe, latency_s=0.04)  # inside SLO, above merge band
        assert rp.check() is None
        assert accel.mode == 2

    def test_max_mode_caps_splits(self, serving_predictors, pspec):
        fe, accel, rp = self.make(serving_predictors, pspec, max_mode=2)
        accel.set_mode(2)
        self.record(fe, latency_s=0.2)
        assert rp.check() is None
        assert accel.mode == 2

    def test_min_mode_caps_merges(self, serving_predictors, pspec):
        fe, accel, rp = self.make(serving_predictors, pspec, min_mode=2)
        accel.set_mode(2)
        self.record(fe, latency_s=0.001)
        assert rp.check() is None
        assert accel.mode == 2

    def test_cooldown_spaces_actions(self, serving_predictors, pspec):
        fe = build_frontend(serving_predictors, tenants=make_tenants(0.05))
        accel = PartitionedAccelerator(fe, pspec)
        rp = Repartitioner(
            accel, RepartitionerConfig(check_every_s=0.01, cooldown_s=10.0)
        )
        self.record(fe, latency_s=0.2)
        assert rp.check() == "split"
        self.record(fe, latency_s=0.2)
        assert rp.check() is None  # still cooling down at virtual now=0
        assert accel.mode == 2

    def test_scheduled_on_the_loop_splits_under_flood(
        self, serving_predictors, pspec
    ):
        fe, accel, rp = self.make(serving_predictors, pspec, slo_s=0.001)
        rp.schedule(until=0.5)
        # A tight SLO plus real traffic: tails breach, the repartitioner
        # splits while the flood is still arriving.
        for i in range(120):
            fe.submit(SIMPLE.name, 64, arrival_s=i * 0.002)
        fe.run()
        assert rp.n_splits >= 1
        assert accel.mode > 1
        assert fe.n_pending == 0
