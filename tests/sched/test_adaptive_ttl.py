"""TTL dynamics of learned service times: re-probing and its tuning.

When the service-time TTL is shorter than the workload's inter-request
gap on the fallback devices, the bad estimate of a contended device
expires, the device looks unmeasured again (zero-service optimism) and
the scheduler (correctly) re-probes it — periodic oscillation.  A TTL
sized above the change timescale keeps traffic off the contended device.
Both behaviours are intended; these tests pin them.
"""

import pytest

from repro.nn.zoo import MNIST_DEEP
from repro.ocl.context import Context
from repro.ocl.platform import get_all_devices
from repro.sched.backlog import BacklogAwareScheduler
from repro.sched.dispatcher import Dispatcher
from repro.sched.scheduler import OnlineScheduler


@pytest.fixture()
def base(trained_predictors):
    ctx = Context(get_all_devices())
    dispatcher = Dispatcher(ctx)
    dispatcher.deploy_fresh(MNIST_DEEP, rng=0)
    return OnlineScheduler(ctx, dispatcher, trained_predictors)


def run_contended(base, backlog, n):
    base.context.get_device("dgpu").set_background_load(0.95)
    devices, t = [], 0.0
    for _ in range(n):
        d, ev = backlog.submit_virtual(MNIST_DEEP, 1 << 14, t)
        devices.append(d.device)
        t = ev.time_ended + 0.01
    return devices


class TestTTLTuning:
    def test_long_ttl_keeps_traffic_off_contended_device(self, base):
        backlog = BacklogAwareScheduler(base, service_ttl_s=300.0)
        devices = run_contended(base, backlog, 60)
        assert devices[-20:].count("dgpu") <= 4

    def test_short_ttl_reprobes_periodically(self, base):
        """With TTL below the fallback service time the contended device
        keeps being re-tried — visible as repeated dGPU visits late in the
        stream (the price of fast recovery detection)."""
        backlog = BacklogAwareScheduler(base, service_ttl_s=5.0)
        devices = run_contended(base, backlog, 60)
        late_dgpu = devices[30:].count("dgpu")
        assert late_dgpu >= 3  # periodic re-probes happen

    def test_reprobes_enable_fast_recovery(self, base):
        """The flip side of oscillation: when contention clears, a short
        TTL notices within a handful of requests."""
        backlog = BacklogAwareScheduler(base, service_ttl_s=5.0)
        run_contended(base, backlog, 30)
        base.context.get_device("dgpu").set_background_load(0.0)
        devices, t = [], 1e6  # long gap: everything stale
        for _ in range(20):
            d, ev = backlog.submit_virtual(MNIST_DEEP, 1 << 14, t)
            devices.append(d.device)
            t = ev.time_ended + 0.01
        assert devices[-10:].count("dgpu") >= 7
