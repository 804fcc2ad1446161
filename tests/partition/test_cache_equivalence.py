"""Decision cache vs uncached twin across a scripted split/merge schedule.

The decision cache's contract is bit-identity: with repartitions tearing
queues down and replacing the device set mid-flood, a cached frontend must
still resolve every request exactly like its uncached twin (the reference
walk in ``tests/placement_oracle.py``) — same status, same device, same
virtual end time, digit for digit.
"""

from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.partition import PartitionedAccelerator

from tests.partition.conftest import build_frontend, make_tenants
from tests.placement_oracle import use_uncached


def run_scripted(serving_predictors, pspec, uncached: bool = False):
    """Serve a fixed workload over a scripted repartition schedule."""
    fe = build_frontend(serving_predictors, tenants=make_tenants())
    if uncached:
        use_uncached(fe)
    accel = PartitionedAccelerator(fe, pspec)
    responses = []
    for i in range(60):
        responses.append(fe.submit(SIMPLE.name, 64, arrival_s=i * 0.001))
        if i % 3 == 0:
            responses.append(
                fe.submit(MNIST_SMALL.name, 4096, arrival_s=i * 0.001)
            )
    # The script: split twice, then merge home — all mid-flood.
    fe.loop.schedule(0.012, lambda _l: accel.set_mode(2), label="script")
    fe.loop.schedule(0.028, lambda _l: accel.set_mode(4), label="script")
    fe.loop.schedule(0.047, lambda _l: accel.set_mode(1), label="script")
    fe.run()
    assert fe.n_pending == 0
    assert accel.n_repartitions == 3
    outcome = [
        (r.status, r.device_name, r.end_s, r.batch_size) for r in responses
    ]
    return outcome, fe


class TestScriptedEquivalence:
    def test_cache_on_and_off_are_bit_identical(self, serving_predictors, pspec):
        cached, fe_on = run_scripted(serving_predictors, pspec)
        plain, fe_off = run_scripted(serving_predictors, pspec, uncached=True)
        assert cached == plain  # exact float equality, not approx
        stats = fe_on.backlog.cache_stats()
        assert stats["hits"] > 0
        assert stats["repartition_invalidations"] > 0
        assert fe_off.backlog.cache_stats()["hits"] == 0

    def test_repartition_invalidations_are_counted(
        self, serving_predictors, pspec
    ):
        _, fe = run_scripted(serving_predictors, pspec)
        stats = fe.backlog.cache_stats()
        # Three reconfigurations, each clearing the live entry set (the
        # attach/detach plumbing and the manager both notify).
        assert stats["repartition_invalidations"] >= 3
