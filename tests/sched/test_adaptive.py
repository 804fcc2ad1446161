"""Adaptation to system changes through learned service times.

:class:`BacklogAwareScheduler` places each request on the earliest
finisher among the predictor's ``max_rank`` top devices, from service
times learned off realized dispatches.  An unmeasured (or aged-out)
device is assumed to serve in zero time, so with ``max_rank >= 2`` the
alternatives get probed; a contended device's realized service time rises
and traffic spills off it.
"""

import pytest

from repro.errors import SchedulerError
from repro.nn.zoo import MNIST_DEEP, MNIST_SMALL
from repro.ocl.context import Context
from repro.ocl.platform import get_all_devices
from repro.sched.backlog import BacklogAwareScheduler
from repro.sched.dispatcher import Dispatcher
from repro.sched.scheduler import OnlineScheduler


@pytest.fixture()
def base(trained_predictors):
    ctx = Context(get_all_devices())
    dispatcher = Dispatcher(ctx)
    for spec in (MNIST_SMALL, MNIST_DEEP):
        dispatcher.deploy_fresh(spec, rng=0)
    return OnlineScheduler(ctx, dispatcher, trained_predictors)


def drain(backlog, spec, batch, n, t0=0.0, gap=0.01):
    """Submit n back-to-back requests, returning the device sequence."""
    devices, t = [], t0
    for _ in range(n):
        decision, event = backlog.submit_virtual(spec, batch, arrival_s=t)
        devices.append(decision.device)
        t = event.time_ended + gap
    return devices, t


class TestSteadyState:
    def test_follows_predictor_without_disturbance(self, base):
        backlog = BacklogAwareScheduler(base, max_rank=1)
        devices, _ = drain(backlog, MNIST_DEEP, 1 << 14, 10)
        assert set(devices) == {"dgpu"}  # big batches: predictor is right
        assert backlog.n_spills == 0

    def test_exploration_visits_other_devices(self, base):
        """Zero-service optimism sends work to the unmeasured runner-up."""
        backlog = BacklogAwareScheduler(base, max_rank=2)
        devices, _ = drain(backlog, MNIST_DEEP, 1 << 14, 40)
        assert len(set(devices)) >= 2
        assert backlog.n_spills > 0

    def test_zero_exploration_never_explores(self, base):
        backlog = BacklogAwareScheduler(base, max_rank=1)
        devices, _ = drain(backlog, MNIST_SMALL, 256, 20)
        assert len(set(devices)) == 1
        assert backlog.n_spills == 0


class TestSystemChanges:
    def test_contention_triggers_override(self, base):
        """§V adaptivity: when another app grabs the dGPU, its realized
        service time balloons and placement spills off it."""
        backlog = BacklogAwareScheduler(base)
        _, t = drain(backlog, MNIST_DEEP, 1 << 14, 20)
        spills_before = backlog.n_spills

        base.context.get_device("dgpu").set_background_load(0.95)
        devices, _ = drain(backlog, MNIST_DEEP, 1 << 14, 50, t0=t)
        late = devices[-15:]
        assert late.count("dgpu") < len(late) / 2
        assert backlog.n_spills > spills_before

    def test_recovery_after_contention_clears(self, base):
        """Estimates age out: once the dGPU frees up, traffic returns."""
        backlog = BacklogAwareScheduler(base, service_ttl_s=5.0)
        _, t = drain(backlog, MNIST_DEEP, 1 << 14, 10)
        dgpu = base.context.get_device("dgpu")

        dgpu.set_background_load(0.95)
        _, t = drain(backlog, MNIST_DEEP, 1 << 14, 30, t0=t)

        dgpu.set_background_load(0.0)
        # Long quiet gap: stale estimates expire, the dGPU is re-probed.
        devices, _ = drain(backlog, MNIST_DEEP, 1 << 14, 40, t0=t + 30.0)
        assert devices[-10:].count("dgpu") >= 5


class TestMechanics:
    def test_decision_sources_labelled(self, base):
        """Every decision says whether it left the predictor's top pick."""
        backlog = BacklogAwareScheduler(base, max_rank=2)
        spilled = set()
        t = 0.0
        for _ in range(30):
            d, ev = backlog.submit_virtual(MNIST_SMALL, 512, arrival_s=t)
            spilled.add(d.spilled)
            assert d.spilled == (d.device != d.ranked[0])
            t = ev.time_ended + 0.01
        assert spilled == {False, True}

    def test_unknown_policy_rejected(self, base):
        with pytest.raises(SchedulerError, match="unknown policy"):
            BacklogAwareScheduler(base, policy="carbon")

    def test_invalid_params(self, base):
        with pytest.raises(ValueError):
            BacklogAwareScheduler(base, max_rank=0)
        with pytest.raises(ValueError):
            BacklogAwareScheduler(base, service_alpha=0.0)
        with pytest.raises(ValueError):
            BacklogAwareScheduler(base, service_ttl_s=-1.0)

    def test_stats_shape(self, base):
        backlog = BacklogAwareScheduler(base, max_rank=1)
        drain(backlog, MNIST_SMALL, 64, 5)
        stats = backlog.cache_stats()
        assert stats["hits"] + stats["misses"] == 5
        assert stats["feedback_invalidations"] == 5
        assert backlog.n_spills == 0
