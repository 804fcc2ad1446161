"""MixedTrace: merging, thinning, seeding, trimming."""

import numpy as np
import pytest

from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.workloads import (
    FlashCrowdStream,
    MixedTrace,
    MMPPStream,
    PoissonStream,
    SessionStream,
    TraceComponent,
)


def two_component_mix(horizon_s: float = 2.0) -> MixedTrace:
    return MixedTrace(components=(
        TraceComponent(
            process=MMPPStream(horizon_s=horizon_s, slo_s=0.3),
            models=(SIMPLE.name, MNIST_SMALL.name),
            name="mmpp",
        ),
        TraceComponent(
            process=FlashCrowdStream(
                horizon_s=horizon_s, slo_s=0.2,
                base_rate_hz=100.0, peak_rate_hz=1_000.0,
                spike_at_s=0.8, ramp_s=0.2, decay_tau_s=0.4,
            ),
            models=(SIMPLE.name,),
            name="flash",
        ),
    ))


class TestBuild:
    def test_time_ordered_and_renumbered(self):
        trace = two_component_mix().build(3)
        times = [r.arrival_s for r in trace]
        assert times == sorted(times)
        assert [r.request_id for r in trace] == list(range(len(trace)))
        assert {r.model for r in trace} <= {SIMPLE.name, MNIST_SMALL.name}

    def test_deterministic_given_seed(self):
        a = two_component_mix().build(9)
        b = two_component_mix().build(9)
        assert a.to_json() == b.to_json()
        c = two_component_mix().build(10)
        assert a.to_json() != c.to_json()

    def test_adding_a_component_never_perturbs_earlier_ones(self):
        base = MixedTrace(components=(
            TraceComponent(
                process=PoissonStream(horizon_s=2.0, rate_hz=200.0, slo_s=0.3),
                models=(SIMPLE.name,),
            ),
        ))
        extended = MixedTrace(components=base.components + (
            TraceComponent(
                process=SessionStream(horizon_s=2.0, slo_s=0.4),
                models=(MNIST_SMALL.name,),
            ),
        ))
        solo = [(r.arrival_s, r.batch) for r in base.build(5)]
        mixed = [
            (r.arrival_s, r.batch)
            for r in extended.build(5)
            if r.model == SIMPLE.name
        ]
        assert solo == mixed

    def test_weight_thins_traffic(self):
        full = MixedTrace(components=(
            TraceComponent(
                process=PoissonStream(horizon_s=10.0, rate_hz=200.0),
                models=(SIMPLE.name,),
            ),
        )).build(1)
        half = MixedTrace(components=(
            TraceComponent(
                process=PoissonStream(horizon_s=10.0, rate_hz=200.0),
                models=(SIMPLE.name,),
                weight=0.5,
            ),
        )).build(1)
        assert len(half) == pytest.approx(len(full) / 2, rel=0.2)

    def test_n_requests_trims_to_exact_prefix(self):
        mix = two_component_mix()
        full = mix.build(4)
        trimmed = mix.build(4, n_requests=50)
        assert len(trimmed) == 50
        key = lambda r: (r.arrival_s, r.model, r.batch, r.deadline_s)
        assert [key(r) for r in trimmed] == [key(r) for r in full][:50]

    def test_n_requests_beyond_population_is_the_full_trace(self):
        mix = two_component_mix(horizon_s=0.5)
        assert len(mix.build(4, n_requests=10**9)) == len(mix.build(4))

    def test_deadlines_follow_component_slo(self):
        trace = two_component_mix().build(2)
        flash_slos = {
            round(r.deadline_s - r.arrival_s, 9)
            for r in trace
            if r.deadline_s is not None
        }
        assert flash_slos <= {0.3, 0.2}
        no_slo = MixedTrace(components=(
            TraceComponent(
                process=PoissonStream(horizon_s=0.5, rate_hz=100.0),
                models=(SIMPLE.name,),
            ),
        )).build(0)
        assert all(r.deadline_s is None for r in no_slo)

    def test_models_accept_specs_and_policy_is_stamped(self):
        trace = MixedTrace(components=(
            TraceComponent(
                process=PoissonStream(horizon_s=0.5, rate_hz=100.0),
                models=(SIMPLE, MNIST_SMALL),
                policy="latency",
            ),
        )).build(0)
        assert {r.model for r in trace} <= {SIMPLE.name, MNIST_SMALL.name}
        assert all(r.policy == "latency" for r in trace)


class TestValidation:
    def test_empty_components_rejected(self):
        with pytest.raises(ValueError):
            MixedTrace(components=())

    def test_component_needs_models(self):
        with pytest.raises(ValueError):
            TraceComponent(process=PoissonStream(), models=())

    @pytest.mark.parametrize("weight", [0.0, -0.1, 1.5])
    def test_weight_out_of_range_rejected(self, weight):
        with pytest.raises(ValueError):
            TraceComponent(
                process=PoissonStream(), models=(SIMPLE.name,), weight=weight
            )

    def test_negative_n_requests_rejected(self):
        mix = two_component_mix(horizon_s=0.2)
        with pytest.raises(ValueError):
            mix.build(0, n_requests=-1)


class TestSplitTrace:
    """Partitioning a trace never loses, reorders or renumbers a request."""

    def _trace(self, n=50):
        from repro.workloads import MMPPStream, split_trace  # noqa: F401

        mix = MixedTrace(components=(
            TraceComponent(
                process=MMPPStream(
                    horizon_s=0.5, slo_s=0.3, rates_hz=(200.0, 800.0),
                    mean_sojourn_s=(0.3, 0.1), batch_sigma=0.0,
                ),
                models=(SIMPLE.name,),
                name="mmpp",
            ),
        ))
        return mix.build(rng=3, n_requests=n)

    def test_round_trips_by_request_id(self):
        from repro.workloads import split_trace

        trace = self._trace()
        assignment = [r.request_id % 3 for r in trace]
        shards = split_trace(trace, assignment, 3)
        assert len(shards) == 3
        merged = sorted(
            (r for shard in shards for r in shard), key=lambda r: r.request_id
        )
        assert merged == list(trace)
        for shard in shards:  # each subtrace stays a valid ordered trace
            arrivals = [r.arrival_s for r in shard]
            assert arrivals == sorted(arrivals)

    def test_empty_shards_are_valid_traces(self):
        from repro.workloads import split_trace

        trace = self._trace(10)
        shards = split_trace(trace, [0] * len(trace), 4)
        assert len(shards[0]) == 10
        assert all(len(s) == 0 for s in shards[1:])

    def test_validation(self):
        from repro.workloads import split_trace

        trace = self._trace(10)
        with pytest.raises(ValueError, match="n_shards"):
            split_trace(trace, [0] * 10, 0)
        with pytest.raises(ValueError, match="covers"):
            split_trace(trace, [0] * 9, 2)
        with pytest.raises(ValueError, match="valid range"):
            split_trace(trace, [2] * 10, 2)

    @pytest.mark.parametrize("bad", [0.7, True, np.float64(1.0), np.True_, "1"])
    def test_non_integer_shard_is_refused_naming_the_request(self, bad):
        # 0.7 used to land in shard 0 and True in shard 1.
        from repro.workloads import split_trace

        trace = self._trace(10)
        assignment = [0] * 10
        assignment[4] = bad
        with pytest.raises(
            ValueError, match=r"request 4 assigned to shard .* not an integer"
        ):
            split_trace(trace, assignment, 2)

    def test_numpy_integer_shards_are_accepted(self):
        from repro.workloads import split_trace

        trace = self._trace(10)
        shards = split_trace(trace, np.arange(10) % 2, 2)
        assert [len(s) for s in shards] == [5, 5]
