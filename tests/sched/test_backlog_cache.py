"""Decision cache: hit accounting, equivalence, and explicit invalidation.

The cache is only allowed to make ``decide`` / ``estimate_completion``
*faster*, never *different*: every test here pins either the bit-identical
equivalence against an uncached twin (the reference walk in
``tests/placement_oracle.py``) or one of the three documented invalidation
paths (feedback version bumps, predictor refit/swap generation checks,
wholesale ``invalidate``).
"""

import pytest

from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.ocl.context import Context
from repro.ocl.platform import get_all_devices
from repro.sched.backlog import BacklogAwareScheduler
from repro.sched.dispatcher import Dispatcher
from repro.sched.policies import Policy
from repro.sched.predictor import DevicePredictor
from repro.sched.scheduler import OnlineScheduler
from tests.placement_oracle import UncachedBacklog


def make_backlog(
    predictors, backlog=BacklogAwareScheduler, **kwargs
) -> BacklogAwareScheduler:
    """A fresh backlog scheduler over fresh devices (zeroed clocks)."""
    ctx = Context(get_all_devices())
    dispatcher = Dispatcher(ctx)
    for spec in (SIMPLE, MNIST_SMALL):
        dispatcher.deploy_fresh(spec, rng=0)
    return backlog(OnlineScheduler(ctx, dispatcher, predictors), **kwargs)


class TestAccounting:
    def test_repeated_probes_hit_after_the_first(self, trained_predictors):
        bl = make_backlog(trained_predictors)
        for i in range(10):
            bl.estimate_completion(MNIST_SMALL, 64, arrival_s=i * 0.001)
        stats = bl.cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 9
        assert stats["hit_rate"] == pytest.approx(0.9)
        assert stats["entries"] == 1

    def test_distinct_cells_miss_separately(self, trained_predictors):
        bl = make_backlog(trained_predictors)
        bl.estimate_completion(MNIST_SMALL, 64, arrival_s=0.0)
        bl.estimate_completion(MNIST_SMALL, 128, arrival_s=0.0)
        bl.estimate_completion(SIMPLE, 64, arrival_s=0.0)
        stats = bl.cache_stats()
        assert stats["misses"] == 3
        assert stats["entries"] == 3


class TestEquivalence:
    def test_flood_is_bit_identical_to_uncached(self, trained_predictors):
        """40 back-to-back arrivals (enough to force spills): every decision
        field and every simulated event time must match the uncached twin
        exactly — not approximately."""
        cached = make_backlog(trained_predictors, max_rank=2)
        plain = make_backlog(trained_predictors, UncachedBacklog, max_rank=2)
        for i in range(40):
            t = i * 0.001
            # Admission-style probe first (as the serving path does), then
            # the committing decide: the probe rebuilds the cell after the
            # previous iteration's feedback, the decide hits it.
            assert cached.estimate_completion(MNIST_SMALL, 1 << 15, t) == (
                plain.estimate_completion(MNIST_SMALL, 1 << 15, t)
            )
            dc, ec = cached.submit_virtual(MNIST_SMALL, 1 << 15, arrival_s=t)
            dp, ep = plain.submit_virtual(MNIST_SMALL, 1 << 15, arrival_s=t)
            assert dc == dp
            assert (ec.time_started, ec.time_ended) == (ep.time_started, ep.time_ended)
        assert cached.n_spills == plain.n_spills
        assert cached.cache_stats()["hits"] > 0

    def test_estimates_track_uncached_across_feedback(self, trained_predictors):
        """Interleave probes with mixed-cell feedback: cached estimates must
        stay exactly equal to the uncached twin's at every step."""
        cached = make_backlog(trained_predictors)
        plain = make_backlog(trained_predictors, UncachedBacklog)
        t = 0.0
        for i in range(20):
            t += 0.002
            batch = 64 if i % 3 else 4096
            assert cached.estimate_completion(MNIST_SMALL, batch, t) == (
                plain.estimate_completion(MNIST_SMALL, batch, t)
            )
            if i % 4 == 0:
                for bl in (cached, plain):
                    bl.record_service(
                        MNIST_SMALL.name, batch, "idle", "cpu",
                        service_s=0.01 * (i + 1), now=t,
                    )


class TestOnlineEquivalence:
    """With an OnlinePredictor installed, the cache must stay bit-identical
    to the uncached twin through the *whole* drift lifecycle: refits
    (generation clears), flag flips (targeted drift invalidations), and
    recoveries.  Each twin gets its own identically-constructed predictor
    (same dataset, same seeded forest), so their online state evolves in
    lockstep from the same observation script."""

    def test_drift_lifecycle_is_bit_identical_to_uncached(self, online_dataset):
        from tests.sched.test_online import FAST, make_online

        cached = make_backlog(
            {Policy.THROUGHPUT: make_online(online_dataset, FAST)}
        )
        plain = make_backlog(
            {Policy.THROUGHPUT: make_online(online_dataset, FAST)},
            UncachedBacklog,
        )
        twins = (cached, plain)

        def feed(model, batch, state, device, service_s, now):
            for bl in twins:
                bl.record_service(model, batch, state, device, service_s, now=now)

        def probe(t):
            assert cached.estimate_completion(SIMPLE, 64, t) == (
                plain.estimate_completion(SIMPLE, 64, t)
            )
            dc, ec = cached.submit_virtual(SIMPLE, 64, arrival_s=t)
            dp, ep = plain.submit_virtual(SIMPLE, 64, arrival_s=t)
            assert dc == dp
            assert (ec.time_started, ec.time_ended) == (
                ep.time_started, ep.time_ended
            )

        t = 0.0
        # Normal regime: seed estimates, let a refit land.
        for i in range(10):
            t += 0.002
            feed("simple", 64, "warm", "dgpu", 0.005, t)
            feed("simple", 64, "warm", "cpu", 0.02, t)
            probe(t)
        # Silent dGPU throttle: both twins flag and fall back together.
        for i in range(12):
            t += 0.002
            feed("simple", 64, "warm", "dgpu", 0.04, t)
            probe(t)
        online = cached.scheduler.predictors[Policy.THROUGHPUT]
        assert online.n_drift_flags >= 1
        # Sustained post-throttle regime: refit + in-band -> recovery.
        for i in range(40):
            t += 0.002
            feed("simple", 64, "warm", "dgpu", 0.04, t)
            feed("simple", 64, "warm", "cpu", 0.02, t)
            probe(t)
        assert online.n_recoveries >= 1

        # The twins walked the same lifecycle...
        for a, b in (
            (cached.online_stats(), plain.online_stats()),
        ):
            assert a["fallback_decisions"] == b["fallback_decisions"]
            pa, pb = a["predictor"], b["predictor"]
            assert pa["drift_flags"] == pb["drift_flags"] >= 1
            assert pa["recoveries"] == pb["recoveries"] >= 1
            assert pa["refits"] == pb["refits"] >= 1
        # ...and the cache actually worked while they did.
        stats = cached.cache_stats()
        assert stats["hits"] > 0
        assert stats["drift_invalidations"] >= 1
        assert stats["refit_clears"] >= 1


class TestInvalidation:
    def test_record_service_bumps_the_touched_cell(self, trained_predictors):
        bl = make_backlog(trained_predictors)
        bl.estimate_completion(MNIST_SMALL, 64, arrival_s=0.0)
        bl.estimate_completion(MNIST_SMALL, 64, arrival_s=0.001)  # hit
        before = bl.cache_stats()
        assert before["hits"] == 1

        # Cover every eligible device so the argmin can't fall back to an
        # unmeasured candidate's zero-service optimism.
        for device in bl.rank_devices(MNIST_SMALL, 64, "idle")[: bl.max_rank]:
            bl.record_service(MNIST_SMALL.name, 64, "idle", device, 0.5, now=0.002)
        _, delay = bl.estimate_completion(MNIST_SMALL, 64, arrival_s=0.003)
        after = bl.cache_stats()
        assert after["feedback_invalidations"] >= 2
        assert after["misses"] == before["misses"] + 1  # entry was rebuilt
        assert delay >= 0.5  # and the fresh observations are visible

    def test_submit_virtual_feedback_invalidates_too(self, trained_predictors):
        bl = make_backlog(trained_predictors)
        bl.submit_virtual(MNIST_SMALL, 64, arrival_s=0.0)
        assert bl.cache_stats()["feedback_invalidations"] >= 1
        # The post-observation probe rebuilds rather than reading stale.
        bl.estimate_completion(MNIST_SMALL, 64, arrival_s=0.01)
        assert bl.cache_stats()["misses"] >= 2

    def test_refit_clears_the_cache(self, small_throughput_dataset):
        predictor = DevicePredictor(Policy.THROUGHPUT).fit(small_throughput_dataset)
        assert predictor.fit_generation == 1
        bl = make_backlog({Policy.THROUGHPUT: predictor})
        bl.estimate_completion(MNIST_SMALL, 64, arrival_s=0.0)
        bl.estimate_completion(MNIST_SMALL, 64, arrival_s=0.001)  # hit
        assert bl.cache_stats()["hits"] == 1

        predictor.fit(small_throughput_dataset)
        assert predictor.fit_generation == 2
        bl.estimate_completion(MNIST_SMALL, 64, arrival_s=0.002)
        stats = bl.cache_stats()
        assert stats["refit_clears"] >= 1
        assert stats["misses"] == 2  # rebuilt against the new fit

    def test_predictor_swap_clears_the_cache(
        self, trained_predictors, small_throughput_dataset
    ):
        bl = make_backlog(dict(trained_predictors))
        bl.estimate_completion(MNIST_SMALL, 64, arrival_s=0.0)
        bl.scheduler.predictors[Policy.THROUGHPUT] = DevicePredictor(
            Policy.THROUGHPUT
        ).fit(small_throughput_dataset)
        bl.estimate_completion(MNIST_SMALL, 64, arrival_s=0.001)
        stats = bl.cache_stats()
        assert stats["refit_clears"] >= 1
        assert stats["misses"] == 2

    def test_explicit_invalidate_drops_entries(self, trained_predictors):
        bl = make_backlog(trained_predictors)
        bl.estimate_completion(MNIST_SMALL, 64, arrival_s=0.0)
        assert bl.cache_stats()["entries"] == 1
        bl.invalidate()
        stats = bl.cache_stats()
        assert stats["entries"] == 0
        assert stats["refit_clears"] >= 1
        bl.estimate_completion(MNIST_SMALL, 64, arrival_s=0.001)
        assert bl.cache_stats()["misses"] == 2
