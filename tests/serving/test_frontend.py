"""The serving frontend end to end: SLOs, coalescing, shedding, overload."""

from dataclasses import replace

import numpy as np
import pytest

from tests.serving.conftest import SERVING_SPECS, build_scheduler
from repro.errors import SchedulerError
from repro.serving import IMMEDIATE_DISPATCH, ServingFrontend, SLOConfig
from repro.workloads.requests import RequestTrace, make_trace
from repro.workloads.streams import OverloadStream


def make_frontend(scheduler, **slo_kwargs) -> ServingFrontend:
    return ServingFrontend(
        scheduler, SERVING_SPECS, default_slo=SLOConfig(**slo_kwargs)
    )


class TestSubmit:
    def test_submit_resolves_after_run(self, scheduler):
        fe = make_frontend(scheduler, max_wait_s=0.01)
        response = fe.submit("simple", 32)
        assert not response.done
        fe.run()
        assert response.served
        assert response.device in ("cpu", "igpu", "dgpu")
        assert response.end_s > response.request.arrival_s
        assert response.energy_j > 0.0
        assert fe.n_pending == 0

    def test_policy_defaults_to_the_placement_policy(self, trained_predictors):
        fe = ServingFrontend(
            build_scheduler(trained_predictors), SERVING_SPECS, policy="energy"
        )
        assert fe.submit("mnist-small", 1024).request.policy == "energy"
        assert fe.submit("mnist-small", 1024, policy="energy").request.policy == "energy"

    def test_foreign_policy_rejected(self, trained_predictors):
        """One frontend places under one predictor: a request may not ask
        for another policy, even one the scheduler has a predictor for."""
        fe = ServingFrontend(build_scheduler(trained_predictors), SERVING_SPECS)
        with pytest.raises(SchedulerError, match="policy"):
            fe.submit("mnist-small", 1024, policy="energy")
        assert fe.n_pending == 0

    def test_gpu_state_idle_after_long_gap(self, scheduler):
        """The placement's probed dGPU state rides on the response: a
        back-to-back pair warms the dGPU, a request after a long idle gap
        finds it cooled."""
        fe = ServingFrontend(
            scheduler, SERVING_SPECS, default_slo=IMMEDIATE_DISPATCH, max_rank=1
        )
        first = fe.submit("mnist-small", 1 << 16, arrival_s=0.0)
        second = fe.submit("mnist-small", 1 << 16, arrival_s=0.001)
        late = fe.submit("mnist-small", 1 << 16, arrival_s=100.0)
        fe.run()
        assert first.device == second.device == late.device == "dgpu"
        assert second.gpu_state == "warm"
        assert late.gpu_state == "idle"

    def test_real_scores_split_across_coalesced_requests(self, scheduler):
        fe = make_frontend(scheduler, max_batch=8, max_wait_s=0.5)
        rng = np.random.default_rng(0)
        x1 = rng.standard_normal((4, 4)).astype(np.float32)
        x2 = rng.standard_normal((4, 4)).astype(np.float32)
        r1 = fe.submit("simple", x1)
        r2 = fe.submit("simple", x2)
        fe.run()
        # Both rode one full batch; each got exactly its own slice back.
        assert r1.batch_id == r2.batch_id
        assert r1.batch_size == 8
        kernel = scheduler.dispatcher.kernel_for(r1.device_name, "simple")
        np.testing.assert_allclose(r1.scores, kernel.run(x1), rtol=1e-5)
        np.testing.assert_allclose(r2.scores, kernel.run(x2), rtol=1e-5)

    def test_default_slo_deadline_applied(self, scheduler):
        fe = make_frontend(scheduler, deadline_s=0.25, max_wait_s=0.01)
        response = fe.submit("simple", 8, arrival_s=1.0)
        assert response.request.deadline_s == pytest.approx(1.25)

    def test_explicit_deadline_wins(self, scheduler):
        fe = make_frontend(scheduler, deadline_s=0.25, max_wait_s=0.01)
        response = fe.submit("simple", 8, deadline_s=0.5, arrival_s=1.0)
        assert response.request.deadline_s == pytest.approx(1.5)

    def test_unknown_model_rejected(self, scheduler):
        fe = make_frontend(scheduler)
        with pytest.raises(SchedulerError, match="not served"):
            fe.submit("resnet", 8)

    def test_submit_into_past_rejected(self, scheduler):
        fe = make_frontend(scheduler, max_wait_s=0.01)
        fe.submit("simple", 8, arrival_s=1.0)
        fe.run()
        with pytest.raises(SchedulerError, match="past"):
            fe.submit("simple", 8, arrival_s=0.5)


class TestCoalescingTriggers:
    def test_full_batch_dispatches_immediately(self, scheduler):
        fe = make_frontend(scheduler, max_batch=64, max_wait_s=10.0)
        r1 = fe.submit("simple", 32, arrival_s=0.0)
        r2 = fe.submit("simple", 32, arrival_s=0.0)
        fe.run()
        assert r1.trigger == "full" and r2.trigger == "full"
        assert r1.batch_id == r2.batch_id
        assert r1.dispatched_s == pytest.approx(0.0)   # no max_wait stall

    def test_lone_request_dispatches_at_max_wait(self, scheduler):
        fe = make_frontend(scheduler, max_batch=1 << 16, max_wait_s=0.02)
        response = fe.submit("simple", 8, arrival_s=1.0)
        fe.run()
        assert response.trigger == "timeout"
        assert response.dispatched_s == pytest.approx(1.02)

    def test_edf_dispatches_tight_deadline_first(self, scheduler):
        fe = ServingFrontend(
            scheduler,
            SERVING_SPECS,
            default_slo=SLOConfig(discipline="edf", max_batch=6, max_wait_s=0.05),
        )
        loose = fe.submit("simple", 4, deadline_s=2.0, arrival_s=0.0)
        tight = fe.submit("simple", 4, deadline_s=0.5, arrival_s=0.0)
        fe.run()
        # Both pending when the queue fills; EDF pops the tight one into
        # the full-trigger batch, the loose one rides the next timeout.
        assert tight.dispatched_s == pytest.approx(0.0)
        assert loose.dispatched_s == pytest.approx(0.05)
        assert tight.batch_id != loose.batch_id


class TestAdmission:
    def test_bounded_queue_sheds_overflow(self, scheduler):
        fe = make_frontend(
            scheduler, max_queue_depth=1, max_batch=1 << 16, max_wait_s=1.0
        )
        kept = fe.submit("simple", 8, arrival_s=0.0)
        shed1 = fe.submit("simple", 8, arrival_s=0.0)
        shed2 = fe.submit("simple", 8, arrival_s=0.0)
        fe.run()
        assert kept.served
        assert shed1.status == "shed" and shed1.shed_reason == "queue_full"
        assert shed2.status == "shed"
        assert fe.telemetry.n_shed == 2
        assert fe.telemetry.shed_rate == pytest.approx(2 / 3)

    def test_ect_sheds_unmeetable_deadline(self, scheduler):
        fe = make_frontend(scheduler, max_wait_s=0.01)
        # Teach the service table that every device takes ~10 s for this
        # cell, in both probed dGPU states.
        for state in ("idle", "warm"):
            for device in ("cpu", "igpu", "dgpu"):
                fe.backlog.record_service("simple", 8, state, device, 10.0, now=0.0)
        doomed = fe.submit("simple", 8, deadline_s=0.05)
        fe.run()
        assert doomed.status == "shed"
        assert doomed.shed_reason == "deadline_unmeetable"

    def test_degrade_runs_on_cheapest_device(self, scheduler):
        fe = ServingFrontend(
            scheduler,
            SERVING_SPECS,
            default_slo=SLOConfig(
                max_queue_depth=1, max_batch=1 << 16, max_wait_s=1.0, degrade=True
            ),
        )
        cheapest = min(
            scheduler.context.devices, key=lambda d: d.spec.busy_watts
        ).device_class.value
        fe.submit("simple", 8, arrival_s=0.0)
        degraded = fe.submit("simple", 8, arrival_s=0.0)
        fe.run()
        assert degraded.served and degraded.degraded
        assert degraded.device == cheapest
        assert degraded.trigger == "degrade"
        assert fe.telemetry.n_degraded == 1
        assert fe.telemetry.n_shed == 0


class TestSLOAccounting:
    def test_violation_counted_for_late_completion(self, scheduler):
        fe = make_frontend(scheduler, max_batch=1 << 16, max_wait_s=0.05)
        late = fe.submit("simple", 8, deadline_s=0.001)  # cold table admits
        fe.run()
        assert late.served
        assert late.deadline_met is False
        assert fe.telemetry.n_violations == 1

    def test_met_deadline_not_a_violation(self, scheduler):
        fe = make_frontend(scheduler, max_batch=8, max_wait_s=0.01)
        ok = fe.submit("simple", 8, deadline_s=1.0)
        fe.run()
        assert ok.deadline_met is True
        assert fe.telemetry.n_violations == 0

    def test_best_effort_has_no_verdict(self, scheduler):
        fe = make_frontend(scheduler, max_wait_s=0.01)
        response = fe.submit("simple", 8)
        fe.run()
        assert response.deadline_met is None


class TestTelemetry:
    def test_stats_snapshot(self, scheduler):
        fe = make_frontend(scheduler, max_batch=16, max_wait_s=0.01)
        for _ in range(4):
            fe.submit("simple", 8)
        fe.run()
        stats = fe.stats()
        assert stats["served"] == 4
        assert stats["pending"] == 0
        assert stats["max_queue_depth"] >= 1
        assert "p99_ms" in stats and "mean_batch_samples" in stats
        assert set(stats["queues"]) == set(SERVING_SPECS)
        assert sum(w["requests"] for w in stats["workers"].values()) == 4

    def test_depth_series_and_batch_histogram(self, scheduler):
        fe = make_frontend(scheduler, max_batch=16, max_wait_s=0.01)
        fe.submit("simple", 8, arrival_s=0.0)
        fe.submit("simple", 8, arrival_s=0.0)   # fills the 16-sample batch
        fe.run()
        series = fe.telemetry.depth_series("simple")
        assert series.max_depth == 2
        assert series.depth_at(10.0) == 0       # drained by the flush
        assert fe.telemetry.batch_sizes.counts == {4: 1}  # one 16-sample batch


class TestOverloadAcceptance:
    def test_frontend_beats_naive_dispatch_under_overload(self, serving_predictors):
        """The acceptance scenario: under a seeded OverloadStream, the
        frontend (coalescing + admission) yields strictly lower p99 latency
        than naive one-at-a-time dispatch of the same trace, with queue
        depth bounded by the configured limit."""
        stream = OverloadStream(
            horizon_s=4.0,
            slo_s=0.3,
            normal_rate_hz=20,
            overload_rate_hz=3000,
            overload_start_s=1.0,
            overload_end_s=2.0,
            normal_batch=64,
            overload_batch=64,
        )
        trace = make_trace(
            stream, [SERVING_SPECS["mnist-small"]], rng=7
        )
        assert len(trace) > 2000  # genuinely a flood

        # Naive: each request alone, at arrival, on the predictor's pick.
        naive = ServingFrontend(
            build_scheduler(serving_predictors), SERVING_SPECS,
            default_slo=IMMEDIATE_DISPATCH, max_rank=1,
        )
        best_effort = RequestTrace(
            tuple(replace(r, deadline_s=None) for r in trace)
        )
        naive_p99 = naive.serve_trace(best_effort).latency_percentile(99)

        frontend = ServingFrontend(
            build_scheduler(serving_predictors),
            SERVING_SPECS,
            default_slo=SLOConfig(
                deadline_s=0.3, max_queue_depth=64, max_batch=4096, max_wait_s=0.005
            ),
        )
        result = frontend.serve_trace(trace)
        frontend_p99 = result.latency_percentile(99)

        # Every request resolved exactly once: served + shed == submitted.
        assert all(r.done for r in result.responses)
        assert len(result.served) + len(result.shed) == len(trace)
        assert frontend.n_pending == 0

        # Strictly lower tail latency, bounded queue.
        assert frontend_p99 < naive_p99
        assert result.telemetry.max_queue_depth <= 64
        # Coalescing actually merged the flood into larger launches.
        assert result.telemetry.batch_sizes.mean_samples > 2 * 64
        # Anyone served met or violated a real deadline; violations stay
        # a small minority of served traffic under admission control.
        assert result.n_violations < 0.05 * len(result.served)
