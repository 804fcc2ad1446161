"""One-request serving through ``ServingFrontend.submit``.

Deploy through the Fig. 2 dispatcher, train the per-policy predictors,
submit host batches: real class scores come back with where the request
ran and what it cost.
"""

import numpy as np
import pytest

from repro.errors import SchedulerError
from repro.nn.builders import build_model
from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.ocl.context import Context
from repro.ocl.platform import get_all_devices
from repro.sched.dataset import generate_dataset
from repro.sched.dispatcher import Dispatcher
from repro.sched.policies import Policy
from repro.sched.predictor import DevicePredictor
from repro.sched.scheduler import OnlineScheduler
from repro.serving import ServingFrontend

WARMUP_BATCHES = (1, 16, 256, 4096, 65536)
SPECS = {s.name: s for s in (SIMPLE, MNIST_SMALL)}


@pytest.fixture(scope="module")
def predictors():
    return {
        policy: DevicePredictor(policy).fit(
            generate_dataset(policy, batches=WARMUP_BATCHES)
        )
        for policy in (Policy.THROUGHPUT, Policy.ENERGY)
    }


def build_frontend(predictors, policy="throughput", weights=None, max_rank=2):
    ctx = Context(get_all_devices())
    dispatcher = Dispatcher(ctx)
    for spec in SPECS.values():
        dispatcher.build_model(spec, rng=0)
        if weights is not None and spec.name in weights:
            dispatcher.load_weights(spec, weights[spec.name])
        dispatcher.deploy(spec)
    scheduler = OnlineScheduler(ctx, dispatcher, predictors)
    return ServingFrontend(scheduler, SPECS, policy=policy, max_rank=max_rank)


@pytest.fixture()
def frontend(predictors):
    return build_frontend(predictors)


def classify(frontend, model, x, **kwargs):
    response = frontend.submit(model, x, **kwargs)
    frontend.run()
    return response


class TestLifecycle:
    def test_warmup_requires_models(self, predictors):
        ctx = Context(get_all_devices())
        scheduler = OnlineScheduler(ctx, Dispatcher(ctx), predictors)
        with pytest.raises(SchedulerError, match="at least one model"):
            ServingFrontend(scheduler, {})

    def test_classify_requires_warmup(self, frontend):
        """Submission is a promise: nothing runs until the loop does."""
        response = frontend.submit("simple", np.zeros((1, 4), dtype=np.float32))
        assert not response.done and response.scores is None
        frontend.run()
        assert response.served and response.scores.shape == (1, 3)

    def test_needs_policies(self):
        ctx = Context(get_all_devices())
        with pytest.raises(SchedulerError, match="predictor"):
            OnlineScheduler(ctx, Dispatcher(ctx), [])

    def test_deployed_models(self, frontend):
        assert sorted(frontend.specs) == ["mnist-small", "simple"]

    def test_ready_flag(self, frontend):
        frontend.submit("simple", 4)
        assert frontend.n_pending == 1
        frontend.run()
        assert frontend.n_pending == 0


class TestClassify:
    def test_real_scores(self, frontend, rng):
        x = rng.standard_normal((16, 4)).astype(np.float32)
        response = classify(frontend, "simple", x)
        assert response.scores.shape == (16, 3)
        assert np.argmax(response.scores, axis=1).shape == (16,)
        assert response.device in ("cpu", "dgpu", "igpu")
        assert response.latency_s > 0
        assert response.energy_j > 0

    def test_scores_match_deployed_weights(self, predictors, rng):
        donor = build_model(SIMPLE, rng=9)
        frontend = build_frontend(
            predictors, weights={"simple": donor.get_weights()}
        )
        x = rng.standard_normal((4, 4)).astype(np.float32)
        response = classify(frontend, "simple", x)
        np.testing.assert_array_equal(response.scores, donor.forward(x))

    def test_policy_routing_differs(self, predictors, rng):
        x = rng.standard_normal((8192, 784)).astype(np.float32)
        tput = classify(build_frontend(predictors), "mnist-small", x,
                        policy="throughput")
        energy = classify(build_frontend(predictors, policy="energy"),
                          "mnist-small", x, policy="energy")
        assert tput.request.policy == "throughput"
        assert energy.request.policy == "energy"

    def test_unknown_model(self, frontend, rng):
        with pytest.raises(SchedulerError, match="not served"):
            frontend.submit("resnet", rng.standard_normal((1, 4)).astype(np.float32))

    def test_unsupported_policy(self, frontend, rng):
        with pytest.raises(SchedulerError, match="policy"):
            frontend.submit(
                "simple",
                rng.standard_normal((1, 4)).astype(np.float32),
                policy=Policy.LATENCY,
            )

    def test_virtual_time_advances(self, frontend, rng):
        before = frontend.stats()["virtual_time_s"]
        classify(frontend, "simple", rng.standard_normal((64, 4)).astype(np.float32))
        assert frontend.stats()["virtual_time_s"] > before

    def test_arrival_placement(self, frontend, rng):
        response = classify(
            frontend, "simple", rng.standard_normal((8, 4)).astype(np.float32),
            arrival_s=100.0,
        )
        assert response.gpu_state == "idle"  # dGPU cooled during the gap


class TestAdaptiveIntegration:
    def test_stats_include_sources(self, frontend, rng):
        classify(frontend, "simple", rng.standard_normal((4, 4)).astype(np.float32))
        stats = frontend.stats()
        assert "spills" in stats
        assert stats["decision_cache"]["hits"] + stats["decision_cache"]["misses"] >= 1

    def test_non_adaptive_mode(self, predictors, rng):
        frontend = build_frontend(predictors, max_rank=1)
        for i in range(4):
            frontend.submit(
                "simple", rng.standard_normal((4, 4)).astype(np.float32),
                arrival_s=0.1 * i,
            )
        frontend.run()
        assert frontend.stats()["spills"] == 0
