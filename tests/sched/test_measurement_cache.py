"""Content-addressed measurement cache and its sweep integration."""

import numpy as np
import pytest

from repro.errors import SchedulerError
from repro.hw.specs import CPU_I7_8700 as CPU
from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.sched.dataset import generate_dataset
from repro.sched.persistence import MeasurementCache
from repro.telemetry.metrics import Measurement
from repro.telemetry.session import MeasurementSession


def _meas(batch=8, elapsed=0.01):
    return Measurement(
        model=SIMPLE.name,
        device=CPU.name,
        gpu_state="warm",
        batch=batch,
        sample_bytes=1024,
        elapsed_s=elapsed,
        energy_j=0.5,
    )


class TestMeasurementCache:
    def test_lookup_store_roundtrip(self):
        cache = MeasurementCache()
        args = (SIMPLE, CPU, "warm", 8, None, False)
        assert cache.lookup(*args) is None
        m = _meas()
        cache.store(*args, m)
        assert cache.lookup(*args) is m
        assert len(cache) == 1

    def test_key_discriminates_every_field(self):
        base = (SIMPLE, CPU, "warm", 8, None, False)
        variants = [
            (MNIST_SMALL, CPU, "warm", 8, None, False),
            (SIMPLE, CPU, "idle", 8, None, False),
            (SIMPLE, CPU, "warm", 16, None, False),
            (SIMPLE, CPU, "warm", 8, 64, False),
            (SIMPLE, CPU, "warm", 8, None, True),
        ]
        keys = {MeasurementCache.key_for(*v) for v in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_key_memo_matches_direct_hash(self):
        cache = MeasurementCache()
        args = (SIMPLE, CPU, "warm", 8, None, False)
        assert cache._key(*args) == MeasurementCache.key_for(*args)
        assert cache._key(*args) == MeasurementCache.key_for(*args)  # memo hit

    def test_lru_eviction(self):
        cache = MeasurementCache(max_entries=2)
        a = (SIMPLE, CPU, "warm", 1, None, False)
        b = (SIMPLE, CPU, "warm", 2, None, False)
        c = (SIMPLE, CPU, "warm", 4, None, False)
        cache.store(*a, _meas(1))
        cache.store(*b, _meas(2))
        cache.lookup(*a)            # refresh a: b is now least recent
        cache.store(*c, _meas(4))
        assert cache.lookup(*a) is not None
        assert cache.lookup(*b) is None
        assert cache.lookup(*c) is not None

    def test_stats(self):
        cache = MeasurementCache()
        args = (SIMPLE, CPU, "warm", 8, None, False)
        cache.lookup(*args)
        cache.store(*args, _meas())
        cache.lookup(*args)
        stats = cache.stats()
        assert stats == {
            "entries": 1, "hits": 1, "misses": 1, "hit_rate": 0.5,
        }

    def test_invalid_max_entries(self):
        with pytest.raises(ValueError, match="max_entries"):
            MeasurementCache(max_entries=0)

    def test_save_requires_path(self):
        with pytest.raises(SchedulerError, match="no path"):
            MeasurementCache().save()
        with pytest.raises(SchedulerError, match="no path"):
            MeasurementCache().load()

    def test_disk_roundtrip(self, tmp_path):
        path = tmp_path / "cache.npz"
        cache = MeasurementCache(path=path)
        args = (SIMPLE, CPU, "warm", 8, None, False)
        cache.store(*args, _meas())
        cache.save()

        reloaded = MeasurementCache(path=path)  # eager load at construction
        assert len(reloaded) == 1
        hit = reloaded.lookup(*args)
        assert hit == _meas()

    def test_load_rejects_future_format(self, tmp_path):
        path = tmp_path / "cache.npz"
        np.savez(path, version=np.int64(999), keys=np.array([], dtype=np.str_))
        with pytest.raises(SchedulerError, match="v999"):
            MeasurementCache(path=path)


class TestSweepIntegration:
    BATCHES = (1, 64)

    def test_warm_sweep_hits_only(self):
        cache = MeasurementCache()
        sess = MeasurementSession(cache=cache)
        cold = generate_dataset("throughput", [SIMPLE], self.BATCHES, session=sess)
        misses_after_cold = cache.misses
        assert misses_after_cold > 0

        warm = generate_dataset("throughput", [SIMPLE], self.BATCHES, session=sess)
        assert cache.misses == misses_after_cold  # every warm point hit
        assert cache.hits >= misses_after_cold
        np.testing.assert_array_equal(cold.y, warm.y)
        assert cold.x.tobytes() == warm.x.tobytes()
        assert cold.y.tobytes() == warm.y.tobytes()

    def test_cache_param_builds_session(self):
        cache = MeasurementCache()
        first = generate_dataset("throughput", [SIMPLE], self.BATCHES, cache=cache)
        again = generate_dataset("throughput", [SIMPLE], self.BATCHES, cache=cache)
        assert cache.hits > 0
        assert first.y.tobytes() == again.y.tobytes()
