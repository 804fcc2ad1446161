"""Fault injection and resilience: breakers, crashes, dropouts, retries.

Unit layers first (breaker state machine, retry backoff, error profile),
then the serving frontend's fault surfaces (crash limbo, device dropout,
thermal throttle), then the full router stack: heartbeat crash detection
with exactly-once re-adoption, breaker-gated routing, timeout rescue,
retry-or-shed, autoscaler dead-node replacement, and the determinism of
the whole chaos scenario across reruns.
"""

import pytest

from repro.cluster import (
    Autoscaler, AutoscalerConfig, ClusterResult, ClusterRouter, NodeState,
)
from repro.errors import SchedulerError
from repro.faults import (
    BreakerState,
    CircuitBreaker,
    ErrorProfile,
    FaultInjector,
    ResilienceConfig,
    RetryPolicy,
)
from repro.serving import LaunchRecord, ServingResponse, SLOConfig
from repro.telemetry.fleet import FleetTelemetry
from repro.telemetry.serving import ServingTelemetry
from repro.workloads.requests import InferenceRequest
from tests.cluster.conftest import build_fleet
from tests.serving.conftest import build_scheduler
from tests.serving.test_frontend import make_frontend

#: Fast-recovery resilience config used across router-level tests.
RESILIENCE = ResilienceConfig(
    timeout_s=0.05,
    heartbeat_every_s=0.01,
    breaker_cooldown_s=0.05,
    breaker_max_cooldown_s=0.4,
    seed=11,
)


@pytest.fixture
def scheduler(serving_predictors):
    return build_scheduler(serving_predictors)


def make_router(serving_predictors, node_specs=None, resilience=RESILIENCE, **kw):
    fleet = (
        build_fleet(serving_predictors)
        if node_specs is None
        else build_fleet(serving_predictors, node_specs=node_specs)
    )
    return ClusterRouter(fleet, resilience=resilience, **kw)


# -- circuit breaker ---------------------------------------------------------

class TestCircuitBreaker:
    def test_starts_closed_and_allows_traffic(self):
        b = CircuitBreaker()
        assert b.state is BreakerState.CLOSED
        assert b.allows_traffic

    def test_trips_at_consecutive_failure_threshold(self):
        b = CircuitBreaker(failure_threshold=3)
        b.record_failure(0.0)
        b.record_failure(0.1)
        assert b.state is BreakerState.CLOSED
        b.record_failure(0.2)
        assert b.state is BreakerState.OPEN
        assert not b.allows_traffic

    def test_success_resets_the_streak(self):
        b = CircuitBreaker(failure_threshold=2)
        b.record_failure(0.0)
        b.record_success(0.1)
        b.record_failure(0.2)
        assert b.state is BreakerState.CLOSED

    def test_trip_opens_immediately(self):
        b = CircuitBreaker(failure_threshold=100)
        b.trip(1.0)
        assert b.state is BreakerState.OPEN
        assert b.cooldown_remaining_s(1.0) == pytest.approx(b.cooldown_s)

    def test_half_open_after_cooldown(self):
        b = CircuitBreaker(cooldown_s=0.2)
        b.trip(0.0)
        assert not b.maybe_half_open(0.1)
        assert b.maybe_half_open(0.2)
        assert b.state is BreakerState.HALF_OPEN
        assert not b.allows_traffic   # probes only, no traffic

    def test_probe_success_recloses_and_resets_cooldown(self):
        b = CircuitBreaker(cooldown_s=0.2, max_cooldown_s=2.0)
        b.trip(0.0)
        b.maybe_half_open(0.2)
        b.record_failure(0.2)         # failed probe: cooldown doubles
        assert b.state is BreakerState.OPEN
        assert not b.maybe_half_open(0.3)   # 0.2 + 0.4 > 0.3
        assert b.maybe_half_open(0.65)
        b.record_success(0.65)
        assert b.state is BreakerState.CLOSED
        # escalation reset: next trip waits only the base cooldown again
        b.trip(1.0)
        assert b.maybe_half_open(1.25)

    def test_cooldown_doubling_caps(self):
        b = CircuitBreaker(cooldown_s=0.2, max_cooldown_s=0.5)
        b.trip(0.0)
        for i in range(5):            # keep failing every probe
            t = 100.0 * (i + 1)
            assert b.maybe_half_open(t)
            b.record_failure(t)
        assert b.cooldown_remaining_s(500.0) == pytest.approx(0.5)

    def test_transition_counters_and_callback(self):
        seen = []
        b = CircuitBreaker(
            failure_threshold=1,
            on_transition=lambda now, old, new: seen.append((old, new)),
        )
        b.record_failure(0.0)
        b.maybe_half_open(10.0)
        b.record_success(10.0)
        assert b.n_opens == 1 and b.n_half_opens == 1 and b.n_closes == 1
        assert seen == [
            (BreakerState.CLOSED, BreakerState.OPEN),
            (BreakerState.OPEN, BreakerState.HALF_OPEN),
            (BreakerState.HALF_OPEN, BreakerState.CLOSED),
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"cooldown_s": 0.0},
            {"cooldown_s": 1.0, "max_cooldown_s": 0.5},
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            CircuitBreaker(**kwargs)


# -- retry policy ------------------------------------------------------------

class TestRetryPolicy:
    def test_budget_counts_total_deliveries(self):
        p = RetryPolicy(max_attempts=3)
        assert p.allows_retry(1) and p.allows_retry(2)
        assert not p.allows_retry(3)

    def test_single_attempt_disables_retries(self):
        assert not RetryPolicy(max_attempts=1).allows_retry(1)

    def test_backoff_grows_geometrically_and_caps(self):
        p = RetryPolicy(
            backoff_base_s=0.01, backoff_multiplier=2.0,
            backoff_cap_s=0.03, jitter_frac=0.0,
        )
        assert p.backoff_s(1) == pytest.approx(0.01)
        assert p.backoff_s(2) == pytest.approx(0.02)
        assert p.backoff_s(3) == pytest.approx(0.03)   # capped
        assert p.backoff_s(9) == pytest.approx(0.03)

    def test_jitter_is_seeded_and_bounded(self):
        from repro.rng import ensure_rng

        p = RetryPolicy(backoff_base_s=0.01, jitter_frac=0.5)
        a = [p.backoff_s(1, ensure_rng(5)) for _ in range(3)]
        b = [p.backoff_s(1, ensure_rng(5)) for _ in range(3)]
        assert a == b                       # same seed, same delays
        for d in a:
            assert 0.01 <= d <= 0.015 + 1e-12

    def test_zero_jitter_draws_nothing(self):
        from repro.rng import ensure_rng

        rng = ensure_rng(5)
        before = rng.bit_generator.state["state"]["state"]
        RetryPolicy(jitter_frac=0.0).backoff_s(1, rng)
        assert rng.bit_generator.state["state"]["state"] == before

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base_s": -0.1},
            {"backoff_multiplier": 0.5},
            {"backoff_base_s": 0.2, "backoff_cap_s": 0.1},
            {"jitter_frac": 1.5},
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_backoff_rejects_zero_attempt(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff_s(0)


# -- error profile -----------------------------------------------------------

class TestErrorProfile:
    def test_draws_only_inside_windows(self):
        p = ErrorProfile(rate=1.0, seed=0, windows=[(1.0, 2.0)])
        assert not p.draw_failure(0.5)
        assert p.draw_failure(1.5)
        assert not p.draw_failure(2.0)      # half-open interval
        assert p.n_draws == 1

    def test_zero_rate_never_draws(self):
        p = ErrorProfile(rate=0.0, seed=0, windows=[(0.0, 10.0)])
        assert not p.draw_failure(5.0)
        assert p.n_draws == 0

    def test_seeded_stream_is_reproducible(self):
        mk = lambda: ErrorProfile(rate=0.5, seed=3, windows=[(0.0, 1.0)])
        a, b = mk(), mk()
        assert [a.draw_failure(0.5) for _ in range(20)] == [
            b.draw_failure(0.5) for _ in range(20)
        ]

    def test_windows_extend(self):
        p = ErrorProfile(rate=1.0, seed=0)
        assert not p.active(0.5)
        p.add_window(0.0, 1.0)
        p.add_window(2.0, 3.0)
        assert p.active(0.5) and p.active(2.5) and not p.active(1.5)


# -- resilience config -------------------------------------------------------

class TestResilienceConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout_s": 0.0},
            {"heartbeat_every_s": 0.0},
            {"heartbeat_tail_s": -1.0},
            {"failure_threshold": 0},
            {"breaker_cooldown_s": 0.0},
            {"breaker_cooldown_s": 1.0, "breaker_max_cooldown_s": 0.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ResilienceConfig(**kwargs)

    def test_none_timeout_disables_timeouts(self):
        assert ResilienceConfig(timeout_s=None).timeout_s is None


# -- frontend fault surfaces -------------------------------------------------

class TestFrontendCrash:
    def test_crash_moves_queued_and_inflight_to_limbo(self, scheduler):
        fe = make_frontend(scheduler, max_batch=8, max_wait_s=10.0)
        fe.submit("simple", 8, arrival_s=0.0)       # full batch -> in flight
        fe.submit("simple", 2, arrival_s=0.0)       # waits in queue
        fe.run(until=0.0)
        assert fe._in_flight == 1
        fe.crash()
        assert fe.crashed
        lost = fe.collect_lost()
        assert [e.request.batch for e in lost] == [8, 2]
        assert fe.collect_lost() == []              # exactly once
        assert fe._in_flight == 0 and fe.n_pending == 0

    def test_arrivals_while_crashed_fall_into_limbo(self, scheduler):
        fe = make_frontend(scheduler, max_wait_s=0.01)
        fe.crash()
        response = fe.submit("simple", 4, arrival_s=0.5)
        fe.run(until=1.0)
        assert not response.done                    # nobody answered
        (entry,) = fe.collect_lost()
        assert entry.request.batch == 4

    def test_restart_requires_crash_and_vice_versa(self, scheduler):
        fe = make_frontend(scheduler)
        with pytest.raises(SchedulerError, match="not crashed"):
            fe.restart()
        fe.crash()
        with pytest.raises(SchedulerError, match="already crashed"):
            fe.crash()
        fe.restart()
        assert not fe.crashed

    def test_aborted_inflight_launch_never_completes(self, scheduler):
        fe = make_frontend(scheduler, max_batch=8, max_wait_s=10.0)
        response = fe.submit("simple", 8, arrival_s=0.0)
        fe.run(until=0.0)
        fe.crash()
        fe.restart()
        fe.run()                                    # drain the dead event
        assert not response.done                    # completion was cancelled


class TestFrontendDeviceFaults:
    def test_drop_device_masks_placement(self, scheduler):
        fe = make_frontend(scheduler, max_wait_s=0.001)
        fe.drop_device("dgpu")
        responses = [
            fe.submit("mnist-small", 4096, arrival_s=0.01 * i) for i in range(10)
        ]
        fe.run()
        assert all(r.served for r in responses)
        assert all(r.device != "dgpu" for r in responses)

    def test_drop_readmits_inflight_work(self, scheduler):
        fe = make_frontend(scheduler, max_batch=8, max_wait_s=10.0)
        # Force a dgpu launch, then yank the device out from under it.
        fe.submit("mnist-small", 8, arrival_s=0.0)
        fe.run(until=0.0)
        victims = [
            w for w in fe._workers.values()
            if w.device_class == "dgpu" and w.in_flight
        ]
        if not victims:
            pytest.skip("placement did not pick the dgpu for this batch")
        readmitted = fe.drop_device("dgpu")
        assert readmitted == 1
        fe.run()
        assert fe.n_pending == 0

    def test_drop_unknown_or_last_device_rejected(self, scheduler):
        fe = make_frontend(scheduler)
        with pytest.raises(SchedulerError, match="already dropped|no"):
            fe.drop_device("npu")
        fe.drop_device("dgpu")
        with pytest.raises(SchedulerError, match="already dropped"):
            fe.drop_device("dgpu")
        fe.drop_device("igpu")
        with pytest.raises(SchedulerError, match="no device"):
            fe.drop_device("cpu")

    def test_restore_device_unmasks(self, scheduler):
        fe = make_frontend(scheduler)
        fe.drop_device("dgpu")
        fe.restore_device("dgpu")
        assert fe.backlog.device_mask is None
        with pytest.raises(SchedulerError, match="not dropped"):
            fe.restore_device("dgpu")

    def test_throttle_stretches_latency(self, serving_predictors):
        def served_latency(multiplier):
            fe = make_frontend(
                build_scheduler(serving_predictors), max_wait_s=0.001
            )
            if multiplier != 1.0:
                for cls in ("cpu", "igpu", "dgpu"):
                    fe.set_throttle(cls, multiplier)
            r = fe.submit("simple", 256, arrival_s=0.0)
            fe.run()
            assert r.served
            return r.latency_s

        assert served_latency(4.0) > served_latency(1.0)

    def test_throttle_rejects_speedups_and_unknown_devices(self, scheduler):
        fe = make_frontend(scheduler)
        with pytest.raises(ValueError, match=">= 1.0"):
            fe.set_throttle("cpu", 0.5)
        with pytest.raises(SchedulerError, match="no"):
            fe.set_throttle("npu", 2.0)


# -- device mask on the backlog scheduler ------------------------------------

class TestDeviceMask:
    def test_mask_filters_available_classes(self, scheduler):
        from repro.sched.backlog import BacklogAwareScheduler

        backlog = BacklogAwareScheduler(scheduler)
        assert backlog.available_classes() == {"cpu", "igpu", "dgpu"}
        backlog.set_device_mask({"cpu"})
        assert backlog.available_classes() == {"cpu"}
        backlog.set_device_mask(None)
        assert backlog.available_classes() == {"cpu", "igpu", "dgpu"}

    def test_empty_intersection_rejected(self, scheduler):
        from repro.sched.backlog import BacklogAwareScheduler

        backlog = BacklogAwareScheduler(scheduler)
        with pytest.raises(SchedulerError, match="no device"):
            backlog.set_device_mask(frozenset())

    def test_mask_invalidates_stale_cache_entries(self, scheduler):
        from repro.nn.zoo import MNIST_SMALL
        from repro.sched.backlog import BacklogAwareScheduler

        backlog = BacklogAwareScheduler(scheduler)
        d1 = backlog.decide(MNIST_SMALL, 4096, arrival_s=0.0)
        backlog.set_device_mask({"cpu"})
        d2 = backlog.decide(MNIST_SMALL, 4096, arrival_s=0.0)
        assert d2.device == "cpu"
        assert backlog.cache_stats()["mask_invalidations"] >= (
            1 if d1.device != "cpu" else 0
        )


# -- fleet telemetry: availability / goodput ---------------------------------

class TestAvailabilityGoodput:
    def test_availability_counts_down_windows(self):
        ft = FleetTelemetry()
        ft.attach("a", ServingTelemetry())
        ft.attach("b", ServingTelemetry())
        assert ft.availability(10.0) == 1.0
        ft.mark_node_down("a", 2.0)
        ft.mark_node_up("a", 4.0)
        # one of two nodes down for 2 of 10 seconds -> 10% of node-time
        assert ft.availability(10.0) == pytest.approx(0.9)

    def test_open_down_window_counts_up_to_now(self):
        ft = FleetTelemetry()
        ft.attach("a", ServingTelemetry())
        ft.mark_node_down("a", 5.0)
        assert ft.availability(10.0) == pytest.approx(0.5)

    def test_marks_are_idempotent(self):
        ft = FleetTelemetry()
        ft.attach("a", ServingTelemetry())
        ft.mark_node_down("a", 2.0)
        ft.mark_node_down("a", 3.0)     # ignored: already down since 2.0
        ft.mark_node_up("a", 4.0)
        ft.mark_node_up("a", 5.0)       # ignored: already up
        assert ft.downtime_s("a", 10.0) == pytest.approx(2.0)

    def test_goodput_counts_sheds_and_violations(self):
        # Goodput lives on the outcome aggregate: 8 served (1 late) and
        # 2 shed out of 10 resolved; a still-pending request is not counted.
        assert ClusterResult().goodput() == 1.0
        responses = []
        for i in range(11):
            r = ServingResponse(
                InferenceRequest(i, 0.0, "simple", 1, deadline_s=1.0)
            )
            if i < 2:
                r.resolve("shed", "queue_full")
            elif i < 10:
                end = 2.0 if i == 2 else 0.5
                r.launch = LaunchRecord(
                    "cpu", "cpu", "idle", "full", i, 1, 0.0, 0.0, end, 0.0
                )
                r.resolve("ok")
            responses.append(r)
        result = ClusterResult(responses=responses)
        assert result.goodput() == pytest.approx(0.7)
        assert result.n_violations == 1 and len(result.shed) == 2

    def test_snapshot_gates_resilience_block(self):
        ft = FleetTelemetry()
        assert "resilience" not in ft.snapshot()
        ft.resilience.n_retries += 1
        assert ft.snapshot()["resilience"]["n_retries"] == 1


# -- router resilience -------------------------------------------------------

class TestRouterResilience:
    def test_without_config_no_breakers_no_hooks(self, serving_predictors):
        router = make_router(serving_predictors, resilience=None)
        assert router.resilience is None
        assert router._breakers == {}
        assert all(n.frontend.on_request_failed is None for n in router.nodes)
        router.health_check()           # explicit no-op
        with pytest.raises(SchedulerError, match="without"):
            router.schedule_health(1.0)

    def test_crash_detected_and_work_readopted_exactly_once(
        self, serving_predictors
    ):
        router = make_router(serving_predictors)
        responses = [
            router.submit("simple", 8, deadline_s=2.0, arrival_s=0.001 * i)
            for i in range(30)
        ]
        injector = FaultInjector(router)
        injector.crash_node(0.005, "node-a")
        router.schedule_health(1.0)
        router.run()
        assert all(r.done for r in responses)
        served = sum(r.served for r in responses)
        shed = sum(r.status == "shed" for r in responses)
        assert served + shed == 30      # exactly once, nothing lost
        res = router.telemetry.resilience
        assert res.n_crashes_detected == 1
        assert router.node("node-a").state is NodeState.DOWN
        assert router.telemetry.availability(router.loop.now) < 1.0

    def test_breaker_reopens_until_recovery_then_closes(self, serving_predictors):
        router = make_router(serving_predictors)
        injector = FaultInjector(router)
        injector.crash_node(0.01, "node-a")
        injector.recover_node(0.2, "node-a")
        router.schedule_health(1.0)
        router.run(until=1.0)
        breaker = router._breakers["node-a"]
        assert breaker.state is BreakerState.CLOSED
        assert breaker.n_opens >= 1 and breaker.n_half_opens >= 1
        node = router.node("node-a")
        assert node.state is NodeState.ACTIVE       # was active pre-crash
        res = router.telemetry.resilience
        assert res.n_breaker_opens >= 1
        assert res.n_breaker_half_opens >= 1
        assert res.n_breaker_closes == 1
        kinds = [e.kind for e in router.events]
        assert "node_down" in kinds and "node_up" in kinds

    def test_open_breaker_diverts_traffic(self, serving_predictors):
        router = make_router(serving_predictors)
        router._breakers["node-a"].trip(0.0)
        assert "node-a" not in [n.name for n in router.routable_nodes()]
        responses = [
            router.submit("simple", 8, arrival_s=0.001 * i) for i in range(8)
        ]
        router.run()
        assert all(r.served for r in responses)
        assert all(r.node_name != "node-a" for r in responses)

    def test_transient_errors_retry_to_success(self, serving_predictors):
        router = make_router(serving_predictors)
        injector = FaultInjector(router)
        # Every completion on node-a fails for the first 50 ms; retries
        # must land the requests elsewhere (or later) within the deadline.
        injector.inject_errors(0.0, "node-a", rate=1.0, duration_s=0.05, seed=1)
        responses = [
            router.submit("simple", 8, deadline_s=2.0, arrival_s=0.001 * i)
            for i in range(12)
        ]
        router.schedule_health(0.5)
        router.run()
        assert all(r.done for r in responses)
        res = router.telemetry.resilience
        assert res.n_failures >= 1
        assert res.n_retries >= 1
        assert res.n_redelivered >= 1
        assert sum(r.served for r in responses) >= 1

    def test_deadline_first_never_retries_expired_requests(
        self, serving_predictors
    ):
        router = make_router(serving_predictors)
        injector = FaultInjector(router)
        injector.inject_errors(0.0, "node-a", rate=1.0, duration_s=10.0, seed=1)
        injector.inject_errors(0.0, "node-b", rate=1.0, duration_s=10.0, seed=2)
        injector.inject_errors(0.0, "node-c", rate=1.0, duration_s=10.0, seed=3)
        injector.inject_errors(0.0, "node-d", rate=1.0, duration_s=10.0, seed=4)
        # A tiny deadline: the first failure already exhausts the slack.
        response = router.submit("simple", 8, deadline_s=0.011, arrival_s=0.0)
        router.run()
        assert response.status == "shed"
        assert response.shed_reason in ("deadline_exceeded", "inference_error")
        if response.shed_reason == "deadline_exceeded":
            assert router.telemetry.resilience.n_shed_deadline >= 1

    def test_retry_budget_exhausts_to_shed(self, serving_predictors):
        cfg = ResilienceConfig(
            retry=RetryPolicy(max_attempts=2, jitter_frac=0.0),
            timeout_s=None,
            heartbeat_every_s=0.01,
            breaker_cooldown_s=10.0,    # breakers stay open once tripped
            breaker_max_cooldown_s=10.0,
            failure_threshold=1000,     # only deadline/budget decide here
            seed=1,
        )
        router = make_router(serving_predictors, resilience=cfg)
        injector = FaultInjector(router)
        for node in ("node-a", "node-b", "node-c", "node-d"):
            injector.inject_errors(0.0, node, rate=1.0, duration_s=10.0, seed=5)
        response = router.submit("simple", 8, deadline_s=9.0, arrival_s=0.0)
        router.run()
        assert response.status == "shed"
        assert response.shed_reason == "retry_budget_exhausted"
        assert router.telemetry.resilience.n_shed_retry_budget == 1
        # two deliveries total: the original route plus exactly one retry
        assert response.n_routes == 2

    def test_timeout_rescues_queued_work_from_crashed_node(
        self, serving_predictors
    ):
        # No heartbeats at all: the rescue timeout alone must pull the
        # request out of the crashed node's limbo and redeliver it.
        router = make_router(serving_predictors)
        injector = FaultInjector(router)
        injector.crash_node(0.005, "node-a")
        responses = [
            router.submit("simple", 8, deadline_s=2.0, arrival_s=0.001 * i)
            for i in range(12)
        ]
        router.run()
        assert all(r.done for r in responses)
        res = router.telemetry.resilience
        assert res.n_timeouts >= 1
        assert res.n_crashes_detected == 0   # nobody ever swept
        assert sum(r.served for r in responses) + sum(
            r.status == "shed" for r in responses
        ) == 12

    def test_stats_expose_resilience_block(self, serving_predictors):
        router = make_router(serving_predictors)
        stats = router.stats()
        block = stats["resilience"]
        assert set(block["breakers"]) == {"node-a", "node-b", "node-c", "node-d"}
        assert block["availability"] == 1.0
        assert block["goodput"] == 1.0
        assert make_router(serving_predictors, resilience=None).stats().get(
            "resilience"
        ) is None


# -- injector ----------------------------------------------------------------

class TestFaultInjector:
    def test_faults_fire_at_their_instants_and_log(self, serving_predictors):
        router = make_router(serving_predictors)
        injector = FaultInjector(router)
        injector.crash_node(0.1, "node-a")
        injector.recover_node(0.3, "node-a")
        injector.throttle_device(0.1, "node-b", "cpu", 2.0, duration_s=0.2)
        router.run(until=1.0)
        kinds = [(f.kind, f.t_s) for f in injector.log]
        assert ("crash", 0.1) in kinds and ("recover", 0.3) in kinds
        assert ("throttle", 0.1) in kinds and ("throttle_end", pytest.approx(0.3)) in kinds
        assert router.telemetry.resilience.n_faults_injected == 4

    def test_unknown_node_rejected_at_schedule_time(self, serving_predictors):
        injector = FaultInjector(make_router(serving_predictors))
        with pytest.raises(SchedulerError, match="no node"):
            injector.crash_node(0.1, "node-z")

    def test_random_campaign_never_crashes_a_down_node(self, serving_predictors):
        router = make_router(serving_predictors)
        injector = FaultInjector(router)
        schedule = injector.random_campaign(
            0.0, 2.0, n_crashes=12, seed=3,
            min_downtime_s=0.05, max_downtime_s=0.3,
        )
        assert len(schedule) == 12
        per_node = {}
        for crash_t, recover_t, name in schedule:
            assert recover_t > crash_t
            per_node.setdefault(name, []).append((crash_t, recover_t))
        for windows in per_node.values():
            windows.sort()
            for (_, up), (down, _) in zip(windows, windows[1:]):
                assert down > up     # no overlap: can't crash while down

    def test_campaign_is_seed_deterministic(self, serving_predictors):
        mk = lambda: FaultInjector(make_router(serving_predictors)).random_campaign(
            0.0, 1.0, n_crashes=5, seed=9
        )
        assert mk() == mk()


# -- autoscaler dead-node replacement ----------------------------------------

class TestAutoscalerReplacement:
    def test_standby_replaces_a_crashed_node(self, serving_predictors):
        from repro.cluster import NodeSpec

        specs = (
            NodeSpec("live-a"),
            NodeSpec("live-b"),
            NodeSpec("spare", active=False),
        )
        router = make_router(serving_predictors, node_specs=specs)
        scaler = Autoscaler(
            router,
            AutoscalerConfig(
                high_depth=1e9, low_depth=1e-9,   # load never triggers scaling
                check_every_s=0.01, min_nodes=2,
            ),
        )
        injector = FaultInjector(router)
        injector.crash_node(0.05, "live-a")
        router.schedule_health(1.0)
        scaler.schedule(until=1.0)
        router.run(until=1.0)
        assert router.node("live-a").state is NodeState.DOWN
        assert router.node("spare").state is NodeState.ACTIVE
        assert scaler.n_replacements == 1
        assert len(router.active_nodes) == 2      # floor held

    def test_down_nodes_hold_no_capacity(self, serving_predictors):
        router = make_router(serving_predictors)
        router.node("node-a").crash()
        router.health_check()
        assert router.node("node-a") in router.down_nodes
        assert router.node("node-a") not in router.active_nodes
        assert router.node("node-a") not in router.routable_nodes()
