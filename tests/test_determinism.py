"""End-to-end determinism: identical seeds -> identical artifacts.

DESIGN.md §7 promises bit-identical regeneration; these integration tests
hold the whole pipeline to it.
"""

import numpy as np

from repro.nn.zoo import MNIST_SMALL, SIMPLE


class TestSweepDeterminism:
    def test_measurements_identical_across_sessions(self):
        from repro.telemetry.session import MeasurementSession

        a = MeasurementSession()
        b = MeasurementSession()
        for batch in (1, 64, 4096):
            ma = a.measure(MNIST_SMALL, "dgpu", batch, "idle")
            mb = b.measure(MNIST_SMALL, "dgpu", batch, "idle")
            assert ma.elapsed_s == mb.elapsed_s
            assert ma.energy_j == mb.energy_j


class TestDatasetDeterminism:
    def test_generation_bit_identical(self):
        from repro.sched.dataset import generate_dataset

        a = generate_dataset("energy", specs=[SIMPLE, MNIST_SMALL], batches=(1, 64, 4096))
        b = generate_dataset("energy", specs=[SIMPLE, MNIST_SMALL], batches=(1, 64, 4096))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)


class TestPredictorDeterminism:
    def test_same_seed_same_predictions(self, small_throughput_dataset):
        from repro.sched.predictor import DevicePredictor, default_estimator

        preds = []
        for _ in range(2):
            p = DevicePredictor("throughput", default_estimator(11))
            p.fit(small_throughput_dataset)
            preds.append(p.predict_batch(small_throughput_dataset.x))
        np.testing.assert_array_equal(preds[0], preds[1])

    def test_different_seed_may_differ_but_agrees_mostly(self, small_throughput_dataset):
        from repro.sched.predictor import DevicePredictor, default_estimator

        a = DevicePredictor("throughput", default_estimator(1)).fit(small_throughput_dataset)
        b = DevicePredictor("throughput", default_estimator(2)).fit(small_throughput_dataset)
        agree = np.mean(
            a.predict_batch(small_throughput_dataset.x)
            == b.predict_batch(small_throughput_dataset.x)
        )
        assert agree > 0.9  # seeds shuffle trees, not conclusions


class TestStreamDeterminism:
    def test_stream_replay_identical(self, trained_predictors):
        from repro.ocl.context import Context
        from repro.ocl.platform import get_all_devices
        from repro.sched.dispatcher import Dispatcher
        from repro.sched.scheduler import OnlineScheduler
        from repro.serving import IMMEDIATE_DISPATCH, ServingFrontend
        from repro.workloads.requests import make_trace
        from repro.workloads.streams import BurstStream

        def run_once():
            ctx = Context(get_all_devices())
            dispatcher = Dispatcher(ctx)
            dispatcher.deploy_fresh(MNIST_SMALL, rng=0)
            scheduler = OnlineScheduler(ctx, dispatcher, trained_predictors)
            frontend = ServingFrontend(
                scheduler, {"mnist-small": MNIST_SMALL},
                default_slo=IMMEDIATE_DISPATCH, max_rank=1,
            )
            trace = make_trace(
                BurstStream(horizon_s=5.0), [MNIST_SMALL], rng=4
            )
            result = frontend.serve_trace(trace)
            return [(r.device, r.end_s, r.energy_j) for r in result.responses]

        assert run_once() == run_once()


class TestChaosDeterminism:
    """Identical seeds -> identical fault campaigns, retries and stats."""

    def _run_chaos(self, serving_predictors):
        from repro.cluster.router import ClusterRouter
        from repro.faults import FaultInjector, ResilienceConfig
        from tests.cluster.conftest import build_fleet

        router = ClusterRouter(
            build_fleet(serving_predictors),
            balancer="join-shortest-queue",
            resilience=ResilienceConfig(seed=11),
        )
        injector = FaultInjector(router)
        injector.crash_node(0.05, "node-a")
        injector.recover_node(0.4, "node-a")
        injector.inject_errors(0.0, "node-b", rate=0.5, duration_s=0.5, seed=2)
        responses = [
            router.submit("simple", 8, deadline_s=1.0, arrival_s=0.002 * i)
            for i in range(50)
        ]
        router.schedule_health(1.0)
        router.run()
        res = router.telemetry.resilience
        return (
            [(r.status, r.node_name, r.n_routes) for r in responses],
            res.n_retries,
            res.n_redelivered,
            router.telemetry.availability(router.loop.now),
            router.goodput(),
        )

    def test_chaos_campaign_replay_identical(self, serving_predictors):
        assert self._run_chaos(serving_predictors) == self._run_chaos(
            serving_predictors
        )

    def test_random_campaign_schedule_is_seeded(self, serving_predictors):
        from repro.cluster.router import ClusterRouter
        from repro.faults import FaultInjector, ResilienceConfig
        from tests.cluster.conftest import build_fleet

        def schedule():
            router = ClusterRouter(
                build_fleet(serving_predictors),
                resilience=ResilienceConfig(seed=3),
            )
            return FaultInjector(router).random_campaign(
                0.0, 5.0, n_crashes=8, seed=21
            )

        assert schedule() == schedule()

    def test_retry_backoff_stream_is_seeded(self):
        from repro.faults import RetryPolicy
        from repro.rng import ensure_rng

        policy = RetryPolicy(backoff_base_s=0.01, jitter_frac=0.5)
        a = [policy.backoff_s(k, ensure_rng(9)) for k in (1, 2, 3)]
        b = [policy.backoff_s(k, ensure_rng(9)) for k in (1, 2, 3)]
        assert a == b


class TestExperimentDeterminism:
    def test_fig6_identical(self, session):
        from repro.experiments.fig6 import run_fig6

        a = run_fig6(batches=(8, 8192), session=session)
        b = run_fig6(batches=(8, 8192), session=session)
        assert [(p.predicted, p.achieved) for p in a.points] == [
            (p.predicted, p.achieved) for p in b.points
        ]
