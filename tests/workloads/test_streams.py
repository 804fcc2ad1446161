"""Arrival processes."""

import numpy as np
import pytest

from repro.workloads.streams import (
    BurstStream,
    ConstantStream,
    DiurnalStream,
    FlashCrowdStream,
    MMPPStream,
    OverloadStream,
    PoissonStream,
    SessionStream,
)


def check_sorted_within_horizon(process, rng=0):
    arrivals = process.generate(rng)
    times = [t for t, _ in arrivals]
    assert times == sorted(times)
    assert all(0.0 <= t < process.horizon_s for t in times)
    assert all(b >= 1 for _, b in arrivals)
    return arrivals


class TestConstant:
    def test_regular_spacing(self):
        arrivals = ConstantStream(horizon_s=1.0, interval_s=0.25, batch=64).generate()
        assert len(arrivals) == 4
        assert all(b == 64 for _, b in arrivals)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            ConstantStream(interval_s=0.0).generate()


class TestPoisson:
    def test_well_formed(self):
        check_sorted_within_horizon(PoissonStream(horizon_s=5.0, rate_hz=30))

    def test_rate_approximate(self):
        arrivals = PoissonStream(horizon_s=50.0, rate_hz=20).generate(1)
        assert len(arrivals) == pytest.approx(1000, rel=0.15)

    def test_deterministic_given_seed(self):
        a = PoissonStream(horizon_s=2.0).generate(7)
        b = PoissonStream(horizon_s=2.0).generate(7)
        assert a == b

    def test_batch_cap(self):
        arrivals = PoissonStream(
            horizon_s=5.0, mean_batch=1 << 16, batch_sigma=3.0, max_batch=1024
        ).generate(0)
        assert max(b for _, b in arrivals) <= 1024


class TestBurst:
    def test_well_formed(self):
        check_sorted_within_horizon(
            BurstStream(horizon_s=6.0, burst_every_s=2.0, burst_duration_s=0.5)
        )

    def test_bursts_denser_and_bigger(self):
        stream = BurstStream(
            horizon_s=30.0, base_rate_hz=5, burst_factor=20,
            burst_duration_s=1.0, burst_every_s=5.0, base_batch=32,
        )
        arrivals = stream.generate(3)
        in_burst = [a for a in arrivals if (a[0] % 5.0) < 1.0]
        outside = [a for a in arrivals if (a[0] % 5.0) >= 1.0]
        # Rate: burst window is 20% of time but should hold most arrivals.
        assert len(in_burst) > len(outside)
        assert max(b for _, b in in_burst) > max(b for _, b in outside)

    def test_burst_windows(self):
        stream = BurstStream(horizon_s=7.0, burst_every_s=3.0, burst_duration_s=0.5)
        assert stream.burst_windows() == [(0.0, 0.5), (3.0, 3.5), (6.0, 6.5)]

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            BurstStream(burst_factor=0.5).generate(0)


class TestDiurnal:
    def test_well_formed(self):
        check_sorted_within_horizon(DiurnalStream(horizon_s=8.0))

    def test_peak_batches_exceed_trough(self):
        stream = DiurnalStream(
            horizon_s=16.0, period_s=8.0, peak_batch=4096, trough_batch=8
        )
        arrivals = stream.generate(5)
        peak = [b for t, b in arrivals if stream.phase_at(t) > 0.8]
        trough = [b for t, b in arrivals if stream.phase_at(t) < 0.2]
        assert np.mean(peak) > 20 * np.mean(trough)

    def test_phase_bounds(self):
        stream = DiurnalStream(period_s=4.0)
        assert stream.phase_at(0.0) == pytest.approx(0.0)
        assert stream.phase_at(2.0) == pytest.approx(1.0)

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            DiurnalStream(peak_rate_hz=1.0, trough_rate_hz=5.0).generate(0)


class TestOverload:
    def test_well_formed(self):
        check_sorted_within_horizon(OverloadStream(horizon_s=10.0))

    def test_flood_window_denser(self):
        stream = OverloadStream(
            horizon_s=10.0, normal_rate_hz=5, overload_rate_hz=100,
            overload_start_s=3.0, overload_end_s=7.0,
        )
        arrivals = stream.generate(2)
        flood = [a for a in arrivals if 3.0 <= a[0] < 7.0]
        calm = [a for a in arrivals if not (3.0 <= a[0] < 7.0)]
        assert len(flood) > 5 * len(calm)

    def test_flood_batches(self):
        stream = OverloadStream(horizon_s=10.0, normal_batch=32, overload_batch=8192)
        arrivals = stream.generate(0)
        assert {b for t, b in arrivals} <= {32, 8192}

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            OverloadStream(overload_start_s=5.0, overload_end_s=2.0).generate(0)


class TestConstructionValidation:
    """Bad horizons fail loudly at construction, not as silent empty traces."""

    @pytest.mark.parametrize("horizon", [0.0, -1.0])
    def test_nonpositive_horizon_raises_at_construction(self, horizon):
        for cls, kwargs in [
            (ConstantStream, {"interval_s": 0.1}),
            (PoissonStream, {}),
            (BurstStream, {}),
            (DiurnalStream, {}),
            (OverloadStream, {}),
        ]:
            with pytest.raises(ValueError, match="horizon_s"):
                cls(horizon_s=horizon, **kwargs)

    def test_burst_windows_cannot_silently_be_empty(self):
        # Regression: BurstStream(horizon_s=-1).burst_windows() used to
        # return [] without complaint; now the constructor refuses.
        with pytest.raises(ValueError):
            BurstStream(horizon_s=-1.0)

    def test_nonpositive_slo_raises(self):
        with pytest.raises(ValueError, match="slo_s"):
            PoissonStream(horizon_s=1.0, slo_s=0.0)
        with pytest.raises(ValueError, match="slo_s"):
            ConstantStream(horizon_s=1.0, interval_s=0.1, slo_s=-0.5)

    def test_slo_none_is_default(self):
        assert PoissonStream(horizon_s=1.0).slo_s is None
        assert BurstStream(horizon_s=1.0, slo_s=0.2).slo_s == 0.2


class TestMMPP:
    def test_well_formed(self):
        check_sorted_within_horizon(MMPPStream(horizon_s=2.0))

    def test_deterministic_given_seed(self):
        a = MMPPStream(horizon_s=2.0).generate(7)
        b = MMPPStream(horizon_s=2.0).generate(7)
        assert a == b
        assert a != MMPPStream(horizon_s=2.0).generate(8)

    def test_quantized_to_grid(self):
        arrivals = MMPPStream(horizon_s=1.0, quantum_s=1e-3).generate(0)
        for t, _ in arrivals:
            assert t == pytest.approx(round(t * 1e3) * 1e-3, abs=1e-12)

    def test_quantization_creates_simultaneous_arrivals(self):
        times = [t for t, _ in MMPPStream(
            horizon_s=1.0, rates_hz=(5_000.0, 20_000.0),
            mean_sojourn_s=(0.2, 0.1),
        ).generate(0)]
        assert len(times) > len(set(times))   # same-timestamp runs exist

    def test_continuous_without_quantum(self):
        times = [t for t, _ in MMPPStream(
            horizon_s=1.0, quantum_s=None,
            rates_hz=(5_000.0, 20_000.0), mean_sojourn_s=(0.2, 0.1),
        ).generate(0)]
        assert len(times) == len(set(times))

    def test_modulation_shifts_the_rate(self):
        quiet = len(MMPPStream(
            horizon_s=20.0, rates_hz=(50.0, 50.0), mean_sojourn_s=(1.0, 1.0),
        ).generate(1))
        bursty = len(MMPPStream(
            horizon_s=20.0, rates_hz=(50.0, 2_000.0),
            mean_sojourn_s=(1.0, 1.0), start_state=1,
        ).generate(1))
        assert bursty > 2 * quiet

    def test_mismatched_state_vectors_rejected(self):
        with pytest.raises(ValueError):
            MMPPStream(
                horizon_s=1.0, rates_hz=(1.0, 2.0), mean_sojourn_s=(1.0,)
            ).generate(0)

    def test_bad_start_state_rejected(self):
        with pytest.raises(ValueError):
            MMPPStream(horizon_s=1.0, start_state=5).generate(0)


class TestFlashCrowd:
    def test_well_formed(self):
        check_sorted_within_horizon(FlashCrowdStream(horizon_s=5.0))

    def test_deterministic_given_seed(self):
        a = FlashCrowdStream(horizon_s=4.0).generate(3)
        assert a == FlashCrowdStream(horizon_s=4.0).generate(3)

    def test_rate_profile_shape(self):
        s = FlashCrowdStream(
            horizon_s=10.0, base_rate_hz=100.0, peak_rate_hz=5_000.0,
            spike_at_s=3.0, ramp_s=0.5, decay_tau_s=1.0,
        )
        assert float(s.rate_at(1.0)) == pytest.approx(100.0)
        assert float(s.rate_at(3.5)) == pytest.approx(5_000.0)
        # Several time constants later, mostly relaxed back to base.
        assert float(s.rate_at(9.0)) < 200.0
        # Vectorized evaluation agrees with scalar calls.
        ts = np.array([1.0, 3.25, 3.5, 6.0])
        assert list(s.rate_at(ts)) == [float(s.rate_at(t)) for t in ts]

    def test_spike_concentrates_arrivals(self):
        s = FlashCrowdStream(
            horizon_s=8.0, base_rate_hz=50.0, peak_rate_hz=3_000.0,
            spike_at_s=4.0, ramp_s=0.25, decay_tau_s=0.5,
        )
        times = np.array([t for t, _ in s.generate(2)])
        in_spike = np.sum((times >= 4.0) & (times < 5.0))
        before = np.sum((times >= 2.0) & (times < 3.0))
        assert in_spike > 10 * before

    def test_peak_must_dominate_base(self):
        with pytest.raises(ValueError):
            FlashCrowdStream(
                horizon_s=1.0, base_rate_hz=100.0, peak_rate_hz=50.0
            ).generate(0)


class TestSession:
    def test_well_formed(self):
        check_sorted_within_horizon(SessionStream(horizon_s=5.0))

    def test_deterministic_given_seed(self):
        a = SessionStream(horizon_s=3.0).generate(5)
        assert a == SessionStream(horizon_s=3.0).generate(5)

    def test_session_volume_scales_with_continue_p(self):
        # Mean session length is 1/continue_p: sticky sessions send more.
        short = len(SessionStream(
            horizon_s=10.0, session_rate_hz=40.0, continue_p=0.9,
        ).generate(4))
        long = len(SessionStream(
            horizon_s=10.0, session_rate_hz=40.0, continue_p=0.1,
        ).generate(4))
        assert long > 3 * short

    def test_bad_continue_p_rejected(self):
        with pytest.raises(ValueError):
            SessionStream(horizon_s=1.0, continue_p=0.0).generate(0)
        with pytest.raises(ValueError):
            SessionStream(horizon_s=1.0, continue_p=1.5).generate(0)

    def test_bad_pareto_params_rejected(self):
        with pytest.raises(ValueError):
            SessionStream(horizon_s=1.0, think_min_s=0.0).generate(0)
        with pytest.raises(ValueError):
            SessionStream(horizon_s=1.0, think_alpha=-1.0).generate(0)


class TestFieldChecks:
    """Every stream refuses a bad field at construction, naming it.

    Each case used to fail late (a bare ZeroDivisionError, a batch-0
    request) or never (an endless loop), so every test here only builds
    the stream: a refusal that went missing fails instead of hanging.
    """

    def test_zero_burst_period_is_refused(self):
        # burst_windows() looped forever on burst_every_s=0.
        with pytest.raises(ValueError, match="burst_every_s"):
            BurstStream(horizon_s=1.0, burst_every_s=0.0)

    @pytest.mark.parametrize(
        "cls, field",
        [
            (BurstStream, "base_rate_hz"),
            (DiurnalStream, "period_s"),
            (OverloadStream, "normal_rate_hz"),
        ],
    )
    def test_zero_rate_or_period_is_refused(self, cls, field):
        # Each raised a bare ZeroDivisionError from generate().
        with pytest.raises(ValueError, match=field):
            cls(horizon_s=1.0, **{field: 0})

    @pytest.mark.parametrize(
        "cls", [MMPPStream, PoissonStream, FlashCrowdStream, SessionStream]
    )
    def test_zero_max_batch_is_refused(self, cls):
        # Each emitted batch-0 pairs, refused only later as requests.
        with pytest.raises(ValueError, match="max_batch"):
            cls(horizon_s=1.0, max_batch=0)

    def test_zero_normal_batch_is_refused(self):
        with pytest.raises(ValueError, match="normal_batch"):
            OverloadStream(horizon_s=1.0, normal_batch=0)

    def test_nan_horizon_is_refused(self):
        with pytest.raises(ValueError, match="horizon_s"):
            PoissonStream(horizon_s=float("nan"))

    def test_nan_slo_is_refused(self):
        with pytest.raises(ValueError, match="slo_s"):
            PoissonStream(horizon_s=1.0, slo_s=float("nan"))

    @pytest.mark.parametrize(
        "cls, field, value",
        [
            (ConstantStream, "batch", True),
            (ConstantStream, "interval_s", float("inf")),
            (PoissonStream, "batch_sigma", float("nan")),
            (MMPPStream, "rates_hz", (200.0, float("nan"))),
            (MMPPStream, "quantum_s", float("nan")),
            (FlashCrowdStream, "peak_rate_hz", float("nan")),
            (SessionStream, "think_alpha", float("nan")),
            (DiurnalStream, "trough_batch", 2.5),
        ],
    )
    def test_nan_inf_and_non_integer_fields_are_refused(self, cls, field, value):
        with pytest.raises(ValueError, match=field):
            cls(horizon_s=1.0, **{field: value})

    def test_valid_streams_still_generate(self):
        for cls in (
            ConstantStream, PoissonStream, BurstStream, DiurnalStream,
            OverloadStream, MMPPStream, FlashCrowdStream, SessionStream,
        ):
            check_sorted_within_horizon(cls(horizon_s=0.5))
