"""Runtime Device objects: probing, cooling, execution state."""

import pytest

from repro.hw.specs import CPU_I7_8700, DGPU_GTX_1080TI
from repro.nn.zoo import MNIST_DEEP, MNIST_SMALL
from repro.ocl.device import Device, DeviceState
from repro.ocl.platform import get_all_devices


@pytest.fixture()
def dgpu():
    return Device(DGPU_GTX_1080TI)


@pytest.fixture()
def cpu():
    return Device(CPU_I7_8700)


class TestProbe:
    def test_starts_idle(self, dgpu):
        assert dgpu.probe_state(0.0) is DeviceState.IDLE

    def test_cpu_always_warm(self, cpu):
        assert cpu.probe_state(0.0) is DeviceState.WARM

    def test_warms_after_execution(self, dgpu):
        now = 0.0
        for _ in range(4):
            timing, _ = dgpu.execute(MNIST_SMALL, 1 << 15, now=now)
            now = timing.clock_end.timestamp
        assert dgpu.probe_state(now) is DeviceState.WARM

    def test_cools_after_long_gap(self, dgpu):
        timing, _ = dgpu.execute(MNIST_SMALL, 1 << 16, now=0.0)
        end = timing.clock_end.timestamp
        assert dgpu.probe_state(end) is DeviceState.WARM
        assert dgpu.probe_state(end + 60.0) is DeviceState.IDLE

    def test_force_state(self, dgpu):
        dgpu.force_state(DeviceState.WARM)
        assert dgpu.probe_state(0.0) is DeviceState.WARM
        dgpu.force_state(DeviceState.IDLE)
        assert dgpu.probe_state(0.0) is DeviceState.IDLE


class TestExecute:
    def test_back_to_back_speeds_up(self, dgpu):
        t1, _ = dgpu.execute(MNIST_SMALL, 4096, now=0.0)
        t2, _ = dgpu.execute(MNIST_SMALL, 4096, now=t1.clock_end.timestamp)
        assert t2.total_s < t1.total_s

    def test_returns_energy(self, cpu):
        _, energy = cpu.execute(MNIST_SMALL, 64, now=0.0)
        assert energy.total_j > 0

    def test_state_committed(self, dgpu):
        before = dgpu.clock_state.clock_frac
        dgpu.execute(MNIST_SMALL, 1 << 14, now=0.0)
        assert dgpu.clock_state.clock_frac > before


class TestPreview:
    def test_preview_does_not_mutate(self, dgpu):
        before = dgpu.clock_state
        dgpu.preview(MNIST_SMALL, 1 << 14, state=DeviceState.WARM)
        assert dgpu.clock_state == before

    def test_preview_states_differ(self, dgpu):
        warm, _ = dgpu.preview(MNIST_SMALL, 1024, state=DeviceState.WARM)
        idle, _ = dgpu.preview(MNIST_SMALL, 1024, state=DeviceState.IDLE)
        assert idle.total_s > warm.total_s

    def test_preview_default_uses_current_state(self, dgpu):
        cur, _ = dgpu.preview(MNIST_SMALL, 1024)
        idle, _ = dgpu.preview(MNIST_SMALL, 1024, state=DeviceState.IDLE)
        assert cur.total_s == pytest.approx(idle.total_s)


class TestDeviceContention:
    def test_background_load_slows_execution(self):
        devices = get_all_devices()
        dgpu = devices[2]
        t_free, _ = dgpu.preview(MNIST_DEEP, 1024)
        dgpu.set_background_load(0.5)
        timing, _ = dgpu.execute(MNIST_DEEP, 1024, now=0.0)
        dgpu.force_state(DeviceState.IDLE)
        assert timing.compute_warm_s > t_free.compute_warm_s

    def test_invalid_load_rejected(self):
        device = get_all_devices()[0]
        with pytest.raises(ValueError):
            device.set_background_load(1.0)
        with pytest.raises(ValueError):
            device.set_background_load(-0.1)

    def test_preview_ignores_contention(self):
        """Previews model the offline characterization, which contention
        invalidates — that gap is what learned service times close."""
        device = get_all_devices()[0]
        before, _ = device.preview(MNIST_SMALL, 256)
        device.set_background_load(0.8)
        after, _ = device.preview(MNIST_SMALL, 256)
        assert after.total_s == pytest.approx(before.total_s)
