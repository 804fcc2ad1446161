"""The cascade executor over a single serving frontend.

Covers the escalation plumbing (exits, escalations, forced exits),
deadline inheritance on re-enqueued requests, seeded determinism of the
virtual exit draws, telemetry attachment, and the placement-bias /
decision-cache wiring into the backlog scheduler.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cascade import (
    CascadeChain,
    CascadeExecutor,
    ThresholdController,
    calibrated_controller_config,
    default_cascade,
    probe_for,
)
from repro.errors import SchedulerError
from repro.nn.zoo import MNIST_SMALL
from repro.workloads.requests import make_trace
from repro.workloads.streams import ConstantStream

from tests.cascade.conftest import build_cascade_frontend


def mid_threshold(profile) -> float:
    """A static stage-0 threshold that splits the probe set ~50/50."""
    return profile.stage(0).quantile("top1", 0.5)


def make_executor(frontend, profile, threshold=None, **kwargs) -> CascadeExecutor:
    theta = mid_threshold(profile) if threshold is None else threshold
    return CascadeExecutor(
        frontend, default_cascade(threshold=theta), profile, **kwargs
    )


class TestSubmit:
    def test_virtual_chain_resolves(self, cascade_frontend, cascade_profile):
        ex = make_executor(cascade_frontend, cascade_profile, rng=7)
        chain = ex.submit(batch=64)
        cascade_frontend.run()
        assert chain.served
        assert sum(chain.exits.values()) == 64
        assert chain.answer_stage in (0, 1)
        assert chain.deadline_met is True
        assert ex.n_pending == 0

    def test_exits_split_between_stages(self, cascade_frontend, cascade_profile):
        # At the median threshold a large batch exits roughly half early.
        ex = make_executor(cascade_frontend, cascade_profile, rng=7)
        result_chain = ex.submit(batch=1000)
        cascade_frontend.run()
        assert 200 < result_chain.exits.get(0, 0) < 800
        assert result_chain.exits.get(0, 0) + result_chain.exits.get(1, 0) == 1000
        assert ex.telemetry.escalated[0] == result_chain.exits[1]

    def test_real_data_chain_uses_actual_confidences(
        self, cascade_frontend, cascade_profile
    ):
        ex = make_executor(cascade_frontend, cascade_profile, rng=7)
        x = probe_for(MNIST_SMALL.input_shape, n=32, rng=3)
        chain = ex.submit(x=x)
        cascade_frontend.run()
        assert chain.served
        assert chain.batch == 32
        assert sum(chain.exits.values()) == 32

    def test_submit_validation(self, cascade_frontend, cascade_profile):
        ex = make_executor(cascade_frontend, cascade_profile)
        with pytest.raises(SchedulerError, match="positive batch"):
            ex.submit()
        with pytest.raises(SchedulerError, match="positive batch"):
            ex.submit(batch=0)
        with pytest.raises(SchedulerError, match="disagrees"):
            ex.submit(batch=8, x=np.zeros((4, 784), dtype=np.float32))

    def test_refused_submit_records_no_chain(self, cascade_frontend, cascade_profile):
        ex = make_executor(cascade_frontend, cascade_profile, rng=7)
        with pytest.raises(ValueError, match="x"):
            ex.submit(x=np.zeros((3, 7), dtype=np.float32))
        assert ex.chains == []
        assert ex.n_pending == 0
        assert ex.telemetry.n_chains == 0
        # The executor still serves the next chain, numbered from zero.
        chain = ex.submit(batch=8)
        cascade_frontend.run()
        assert chain.chain_id == 0 and chain.served
        assert ex.n_pending == 0 and ex.telemetry.n_chains == 1

    def test_rejects_undeployed_models(self, cascade_predictors, cascade_profile):
        lean = build_cascade_frontend(
            cascade_predictors, specs={MNIST_SMALL.name: MNIST_SMALL}
        )
        with pytest.raises(SchedulerError, match="not deployed"):
            make_executor(lean, cascade_profile)

    def test_chain_rejects_empty_batch(self):
        with pytest.raises(SchedulerError, match="positive"):
            CascadeChain(chain_id=0, batch=0, origin_arrival_s=0.0, deadline_s=None)

    def test_pending_chain_has_no_latency(self):
        chain = CascadeChain(chain_id=0, batch=1, origin_arrival_s=0.0, deadline_s=None)
        with pytest.raises(SchedulerError, match="no latency"):
            chain.latency_s


class TestDeadlineInheritance:
    """Satellite: escalations inherit the chain's original arrival + SLO."""

    def test_escalation_carries_origin_deadline(
        self, cascade_frontend, cascade_profile
    ):
        # θ = 1.0 closes the early exit: every sample escalates, so the
        # follow-up request is guaranteed to exist.
        ex = make_executor(cascade_frontend, cascade_profile, threshold=1.0, rng=7)
        recorded = []
        original = cascade_frontend.submit_request

        def record(request, x=None):
            recorded.append(request)
            return original(request, x)

        cascade_frontend.submit_request = record
        chain = ex.submit(batch=16)
        cascade_frontend.run()

        assert chain.served
        assert chain.exits == {1: 16}
        first, escalation = recorded
        # Stage 0 is an ordinary request: its own arrival, no origin.
        assert first.origin_arrival_s is None
        assert first.arrival_s == chain.origin_arrival_s
        # The follow-up arrives later but never resets the clock or SLO.
        assert escalation.origin_arrival_s == chain.origin_arrival_s
        assert escalation.deadline_s == chain.deadline_s
        assert escalation.arrival_s > escalation.origin_arrival_s
        assert escalation.effective_arrival_s == chain.origin_arrival_s

    def test_chain_latency_counts_from_first_hop(
        self, cascade_frontend, cascade_profile
    ):
        ex = make_executor(cascade_frontend, cascade_profile, threshold=1.0, rng=7)
        chain = ex.submit(batch=16)
        cascade_frontend.run()
        assert chain.latency_s == pytest.approx(
            chain.end_s - chain.origin_arrival_s
        )
        assert chain.n_stages_run == 2


class TestForcedExit:
    def test_blown_deadline_forces_cheap_answer(
        self, cascade_frontend, cascade_profile
    ):
        # θ = 1.0 wants to escalate everything, but the deadline (4 ms) is
        # shorter than the coalescer's 5 ms flush — by the time stage 0
        # completes the budget is gone, so the remnant takes the cheap
        # answer instead of escalating into a guaranteed violation.
        ex = make_executor(cascade_frontend, cascade_profile, threshold=1.0, rng=7)
        chain = ex.submit(batch=32, deadline_s=0.004)
        cascade_frontend.run()
        assert chain.served
        assert chain.forced
        assert chain.answer_stage == 0
        assert chain.exits == {0: 32}
        assert ex.telemetry.n_forced_chains == 1
        assert ex.telemetry.n_forced_samples == 32
        assert ex.telemetry.n_escalations == 0

    def test_forced_exit_discounts_accuracy_proxy(
        self, cascade_frontend, cascade_profile
    ):
        ex = make_executor(cascade_frontend, cascade_profile, threshold=1.0, rng=7)
        ex.submit(batch=32, deadline_s=0.004)
        cascade_frontend.run()
        # The forced samples carry the *escalating* population's agreement,
        # not the confident population's.
        expected = cascade_profile.stage(0).agreement_below("top1", 1.0)
        assert ex.telemetry.accuracy_proxy == pytest.approx(expected)


class TestDeterminism:
    def test_same_seed_same_exit_counts(self, cascade_predictors, cascade_profile):
        def run_once():
            fe = build_cascade_frontend(cascade_predictors)
            ex = make_executor(fe, cascade_profile, rng=11)
            trace = make_trace(
                ConstantStream(horizon_s=0.2, slo_s=0.3, interval_s=0.01, batch=32),
                [MNIST_SMALL],
                rng=5,
            )
            result = ex.serve_trace(trace)
            return result

        a, b = run_once(), run_once()
        assert a.exit_counts() == b.exit_counts()
        assert [c.exits for c in a.chains] == [c.exits for c in b.chains]
        assert [c.status for c in a.chains] == [c.status for c in b.chains]

    def test_different_seed_can_differ(self, cascade_predictors, cascade_profile):
        # Not a strict requirement sample-by-sample, but across 20 chains
        # of 32 the Binomial draws should not collide exactly.
        def run_once(seed):
            fe = build_cascade_frontend(cascade_predictors)
            ex = make_executor(fe, cascade_profile, rng=seed)
            for i in range(20):
                ex.submit(batch=32, arrival_s=0.01 * i)
            fe.run()
            return [c.exits for c in ex.chains]

        assert run_once(1) != run_once(2)


class TestServeTrace:
    def test_trace_model_is_ignored_chains_enter_at_stage_zero(
        self, cascade_frontend, cascade_profile
    ):
        ex = make_executor(cascade_frontend, cascade_profile, rng=7)
        trace = make_trace(
            ConstantStream(horizon_s=0.1, slo_s=0.3, interval_s=0.02, batch=16),
            [MNIST_SMALL],
            rng=5,
        )
        result = ex.serve_trace(trace)
        assert len(result) == len(trace)
        assert all(c.done for c in result.chains)
        assert result.goodput() == pytest.approx(1.0)
        assert sum(result.exit_counts().values()) == trace.total_samples

    def test_result_aggregates(self, cascade_frontend, cascade_profile):
        ex = make_executor(cascade_frontend, cascade_profile, rng=7)
        for i in range(5):
            ex.submit(batch=64, arrival_s=0.01 * i)
        cascade_frontend.run()
        result = ex.result()
        assert len(result.served) == 5
        assert result.shed_rate == 0.0
        assert result.n_violations == 0
        assert result.latency_percentile(99) > 0.0


class TestPlacementWiring:
    def test_stage_biases_installed_on_backlog(
        self, cascade_frontend, cascade_profile
    ):
        make_executor(cascade_frontend, cascade_profile)
        backlog = cascade_frontend.backlog
        assert backlog.model_preference("mnist-small") == ("cpu", "igpu")
        assert backlog.model_preference("mnist-deep") == ("dgpu",)

    def test_bias_reorders_ranking(self, cascade_frontend, cascade_profile):
        make_executor(cascade_frontend, cascade_profile)
        ranked = cascade_frontend.backlog.rank_devices(MNIST_SMALL, 64, "idle")
        # The entry stage's preferred classes lead the ranking.
        assert set(ranked[:2]) == {"cpu", "igpu"}

    def test_threshold_change_invalidates_decision_cache(
        self, cascade_frontend, cascade_profile
    ):
        controller = ThresholdController(
            calibrated_controller_config(cascade_profile)
        )
        ex = make_executor(
            cascade_frontend, cascade_profile, controller=controller, rng=7
        )
        # Warm the decision cache with real stage-0 placements.
        for i in range(4):
            ex.submit(batch=64, arrival_s=0.01 * i)
        cascade_frontend.run()
        before = cascade_frontend.backlog.cache_stats()["preference_invalidations"]
        ex.control_tick()   # idle frontend: calm -> threshold raised
        after = cascade_frontend.backlog.cache_stats()["preference_invalidations"]
        assert controller.thresholds, "controller never moved"
        assert after > before, "stage-0 decision cells survived a retune"

    def test_control_tick_requires_controller(
        self, cascade_frontend, cascade_profile
    ):
        ex = make_executor(cascade_frontend, cascade_profile)
        with pytest.raises(SchedulerError, match="without a controller"):
            ex.control_tick()
        with pytest.raises(SchedulerError, match="without a controller"):
            ex.schedule_control(until=1.0)


class TestTelemetry:
    def test_cascade_rides_in_serving_snapshot(
        self, cascade_frontend, cascade_profile
    ):
        ex = make_executor(cascade_frontend, cascade_profile, rng=7)
        ex.submit(batch=64)
        cascade_frontend.run()
        snap = cascade_frontend.telemetry.snapshot()
        assert snap["cascade"]["name"] == ex.cascade.name
        assert snap["cascade"]["chains"] == 1
        assert snap["cascade"]["resolved"] == 1

    def test_stats_include_controller_state(
        self, cascade_frontend, cascade_profile
    ):
        controller = ThresholdController(
            calibrated_controller_config(cascade_profile)
        )
        ex = make_executor(
            cascade_frontend, cascade_profile, controller=controller
        )
        stats = ex.stats()
        assert "controller" in stats
        assert stats["controller"]["band"] == (
            controller.config.min_threshold, controller.config.max_threshold
        )

    def test_latency_split_and_shares(self, cascade_frontend, cascade_profile):
        ex = make_executor(cascade_frontend, cascade_profile, rng=7)
        ex.submit(batch=1000)
        cascade_frontend.run()
        shares = ex.telemetry.exit_shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        split = ex.telemetry.latency_split_s()
        assert split and all(v > 0.0 for v in split.values())
