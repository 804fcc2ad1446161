"""Arrival processes: when requests show up and how big they are.

Each process generates ``(arrival_time_s, batch_size)`` pairs over a
horizon.  Batch size tracks load: at high arrival intensity the producer
has accumulated more samples per request (the paper's observation that
data volume and velocity vary together under bursts/diurnal patterns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.rng import ensure_rng

__all__ = [
    "ArrivalProcess",
    "ConstantStream",
    "PoissonStream",
    "BurstStream",
    "DiurnalStream",
    "OverloadStream",
    "MMPPStream",
    "FlashCrowdStream",
    "SessionStream",
]


def _positive(name: str, value) -> None:
    # Written so NaN fails: every comparison with NaN is False.
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _non_negative(name: str, value) -> None:
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be >= 0 and finite, got {value!r}")


def _positive_int(name: str, value) -> None:
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or value <= 0
    ):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _quantum(value) -> None:
    if value is not None:
        _positive("quantum_s", value)


def _clip_batch(values: np.ndarray, lo: int, hi: int) -> np.ndarray:
    return np.clip(np.round(values), lo, hi).astype(np.int64)


def _quantize(times: np.ndarray, quantum_s: "float | None") -> np.ndarray:
    """Truncate timestamps to a log-resolution grid (floor, so values stay
    in [0, horizon) and order is preserved)."""
    if not quantum_s:
        return times
    return np.floor(times / quantum_s) * quantum_s


def _exp_offsets(gen: np.random.Generator, rate_hz: float, span_s: float) -> np.ndarray:
    """Poisson-process offsets in [0, span) via exponential gaps.

    Draws gap blocks until the cumulative sum passes the span, so the tail
    is never undercounted; consumes a deterministic amount of ``gen``
    state for a given (rate, span, prior state).
    """
    if span_s <= 0.0:
        return np.empty(0, dtype=np.float64)
    chunks = []
    total = 0.0
    size = max(8, int(np.ceil(rate_hz * span_s * 1.2)) + 8)
    while True:
        cum = total + np.cumsum(gen.exponential(1.0 / rate_hz, size=size))
        chunks.append(cum)
        total = float(cum[-1])
        if total >= span_s:
            break
    offsets = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    return offsets[offsets < span_s]


@dataclass(frozen=True)
class ArrivalProcess:
    """Base class: subclasses implement :meth:`generate`.

    ``slo_s`` optionally attaches a service-level objective to the stream:
    every generated request carries ``deadline_s = arrival_s + slo_s``
    (consumed by :func:`repro.workloads.requests.make_trace`), so a trace
    can drive a deadline-aware serving frontend end to end.
    """

    horizon_s: float = 10.0
    slo_s: "float | None" = None

    def __post_init__(self) -> None:
        # Validate at construction so a bad field can never silently yield
        # an empty trace, a batch-0 request or a generator that never ends.
        _positive("horizon_s", self.horizon_s)
        if self.slo_s is not None:
            _positive("slo_s", self.slo_s)
        self._check_fields()

    def _check_fields(self) -> None:
        """Check the subclass's own fields (called at construction)."""

    def generate(
        self, rng: "int | np.random.Generator | None" = None
    ) -> list[tuple[float, int]]:
        """Return time-ordered ``(arrival_s, batch)`` pairs in [0, horizon)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantStream(ArrivalProcess):
    """Fixed interval, fixed batch — the steady baseline."""

    interval_s: float = 0.1
    batch: int = 256

    def _check_fields(self) -> None:
        _positive("interval_s", self.interval_s)
        _positive_int("batch", self.batch)

    def generate(self, rng=None) -> list[tuple[float, int]]:
        times = np.arange(0.0, self.horizon_s, self.interval_s)
        return [(float(t), self.batch) for t in times]


@dataclass(frozen=True)
class PoissonStream(ArrivalProcess):
    """Poisson arrivals with geometric-ish lognormal batch sizes."""

    rate_hz: float = 20.0
    mean_batch: int = 256
    batch_sigma: float = 1.0
    max_batch: int = 1 << 17

    def _check_fields(self) -> None:
        _positive("rate_hz", self.rate_hz)
        _positive("mean_batch", self.mean_batch)
        _non_negative("batch_sigma", self.batch_sigma)
        _positive_int("max_batch", self.max_batch)

    def generate(self, rng=None) -> list[tuple[float, int]]:
        gen = ensure_rng(rng)
        n_expected = int(np.ceil(self.rate_hz * self.horizon_s * 1.5)) + 8
        gaps = gen.exponential(1.0 / self.rate_hz, size=n_expected)
        times = np.cumsum(gaps)
        times = times[times < self.horizon_s]
        batches = _clip_batch(
            np.exp(np.log(self.mean_batch) + self.batch_sigma * gen.standard_normal(times.size)),
            1,
            self.max_batch,
        )
        return list(zip(times.tolist(), batches.tolist()))


@dataclass(frozen=True)
class BurstStream(ArrivalProcess):
    """Quiet background traffic punctuated by dense bursts.

    During a burst the arrival rate multiplies by ``burst_factor`` and
    batches grow accordingly — the "data bursts" the scheduler must absorb.
    """

    base_rate_hz: float = 5.0
    burst_factor: float = 20.0
    burst_duration_s: float = 0.5
    burst_every_s: float = 3.0
    base_batch: int = 64
    max_batch: int = 1 << 17

    def _check_fields(self) -> None:
        _positive("base_rate_hz", self.base_rate_hz)
        if not 1.0 <= self.burst_factor < math.inf:
            raise ValueError(
                f"burst_factor must be >= 1 and finite, got {self.burst_factor!r}"
            )
        _non_negative("burst_duration_s", self.burst_duration_s)
        _positive("burst_every_s", self.burst_every_s)
        _positive_int("base_batch", self.base_batch)
        _positive_int("max_batch", self.max_batch)

    def generate(self, rng=None) -> list[tuple[float, int]]:
        gen = ensure_rng(rng)
        out: list[tuple[float, int]] = []
        t = 0.0
        while t < self.horizon_s:
            in_burst = (t % self.burst_every_s) < self.burst_duration_s
            rate = self.base_rate_hz * (self.burst_factor if in_burst else 1.0)
            batch = self.base_batch * (int(self.burst_factor) if in_burst else 1)
            out.append((t, int(min(batch, self.max_batch))))
            t += float(gen.exponential(1.0 / rate))
        return out

    def burst_windows(self) -> list[tuple[float, float]]:
        """The [start, end) intervals where bursts are active."""
        windows = []
        start = 0.0
        while start < self.horizon_s:
            windows.append((start, min(start + self.burst_duration_s, self.horizon_s)))
            start += self.burst_every_s
        return windows


@dataclass(frozen=True)
class DiurnalStream(ArrivalProcess):
    """Sinusoidal day/night load: batch and rate follow a slow cycle.

    Models the diurnal patterns of §I whose low-load valleys are where the
    energy policy pays off (a low-end device suffices at night).
    """

    period_s: float = 8.0
    peak_rate_hz: float = 40.0
    trough_rate_hz: float = 2.0
    peak_batch: int = 4096
    trough_batch: int = 8

    def _check_fields(self) -> None:
        _positive("period_s", self.period_s)
        _positive("trough_rate_hz", self.trough_rate_hz)
        if not self.trough_rate_hz <= self.peak_rate_hz < math.inf:
            raise ValueError(
                f"peak_rate_hz must be finite and >= trough_rate_hz "
                f"{self.trough_rate_hz!r}, got {self.peak_rate_hz!r}"
            )
        _positive_int("peak_batch", self.peak_batch)
        _positive_int("trough_batch", self.trough_batch)

    def generate(self, rng=None) -> list[tuple[float, int]]:
        gen = ensure_rng(rng)
        out: list[tuple[float, int]] = []
        t = 0.0
        while t < self.horizon_s:
            phase = 0.5 * (1.0 - np.cos(2.0 * np.pi * t / self.period_s))  # 0..1
            rate = self.trough_rate_hz + phase * (self.peak_rate_hz - self.trough_rate_hz)
            batch = int(
                round(
                    np.exp(
                        np.log(self.trough_batch)
                        + phase * (np.log(self.peak_batch) - np.log(self.trough_batch))
                    )
                )
            )
            out.append((t, max(1, batch)))
            t += float(gen.exponential(1.0 / rate))
        return out

    def phase_at(self, t: float) -> float:
        """Load phase in [0, 1] at time ``t`` (0 = trough, 1 = peak)."""
        return float(0.5 * (1.0 - np.cos(2.0 * np.pi * t / self.period_s)))


@dataclass(frozen=True)
class OverloadStream(ArrivalProcess):
    """A step overload: normal load, then a sustained flood.

    Exercises the "application overloads" responsiveness claim — the
    scheduler should shift to the high-throughput device when the flood
    hits and back when it recedes.
    """

    normal_rate_hz: float = 5.0
    overload_rate_hz: float = 100.0
    overload_start_s: float = 3.0
    overload_end_s: float = 7.0
    normal_batch: int = 32
    overload_batch: int = 8192

    def _check_fields(self) -> None:
        _positive("normal_rate_hz", self.normal_rate_hz)
        _positive("overload_rate_hz", self.overload_rate_hz)
        if not 0.0 <= self.overload_start_s < self.overload_end_s:
            raise ValueError(
                f"overload window [overload_start_s, overload_end_s) = "
                f"[{self.overload_start_s!r}, {self.overload_end_s!r}) is "
                "empty or negative"
            )
        _positive_int("normal_batch", self.normal_batch)
        _positive_int("overload_batch", self.overload_batch)

    def generate(self, rng=None) -> list[tuple[float, int]]:
        gen = ensure_rng(rng)
        out: list[tuple[float, int]] = []
        t = 0.0
        while t < self.horizon_s:
            overloaded = self.overload_start_s <= t < self.overload_end_s
            rate = self.overload_rate_hz if overloaded else self.normal_rate_hz
            batch = self.overload_batch if overloaded else self.normal_batch
            out.append((t, batch))
            t += float(gen.exponential(1.0 / rate))
        return out


@dataclass(frozen=True)
class MMPPStream(ArrivalProcess):
    """Markov-modulated Poisson process: bursty production traffic.

    A continuous-time Markov chain walks over ``rates_hz`` states
    (exponential sojourns with per-state means); within a state, arrivals
    are Poisson at that state's rate.  Two states (quiet / burst) give the
    classic interrupted-Poisson burst process; more states approximate
    self-similar traffic.  Batch sizes are lognormal around
    ``mean_batch``, independent of state.

    ``quantum_s`` truncates timestamps to a production-log grid (default
    1 ms).  Real open-loop traces carry finite-resolution timestamps, so
    simultaneous arrivals are the norm — and the serving stack's
    trace cursor batches exactly those same-timestamp runs.
    Set ``quantum_s=None`` for continuous timestamps.
    """

    rates_hz: tuple[float, ...] = (200.0, 2_000.0)
    mean_sojourn_s: tuple[float, ...] = (2.0, 0.25)
    mean_batch: int = 64
    batch_sigma: float = 0.8
    max_batch: int = 1 << 17
    start_state: int = 0
    quantum_s: "float | None" = 1e-3

    def _check_fields(self) -> None:
        if len(self.rates_hz) != len(self.mean_sojourn_s) or not self.rates_hz:
            raise ValueError(
                "rates_hz and mean_sojourn_s must be equal-length and non-empty"
            )
        for i, (rate, sojourn) in enumerate(zip(self.rates_hz, self.mean_sojourn_s)):
            _positive(f"rates_hz[{i}]", rate)
            _positive(f"mean_sojourn_s[{i}]", sojourn)
        if not 0 <= self.start_state < len(self.rates_hz):
            raise ValueError(
                f"start_state {self.start_state} out of range for "
                f"{len(self.rates_hz)} states"
            )
        _positive("mean_batch", self.mean_batch)
        _non_negative("batch_sigma", self.batch_sigma)
        _positive_int("max_batch", self.max_batch)
        _quantum(self.quantum_s)

    def generate(self, rng=None) -> list[tuple[float, int]]:
        gen = ensure_rng(rng)
        n_states = len(self.rates_hz)
        segments: list[np.ndarray] = []
        t = 0.0
        state = self.start_state
        while t < self.horizon_s:
            dwell = float(gen.exponential(self.mean_sojourn_s[state]))
            span = min(dwell, self.horizon_s - t)
            segments.append(t + _exp_offsets(gen, self.rates_hz[state], span))
            t += dwell
            if n_states > 1:
                # Uniform jump to one of the *other* states.
                state = (state + 1 + int(gen.integers(n_states - 1))) % n_states
        times = _quantize(np.concatenate(segments), self.quantum_s)
        batches = _clip_batch(
            np.exp(
                np.log(self.mean_batch)
                + self.batch_sigma * gen.standard_normal(times.size)
            ),
            1,
            self.max_batch,
        )
        return list(zip(times.tolist(), batches.tolist()))


@dataclass(frozen=True)
class FlashCrowdStream(ArrivalProcess):
    """Baseline traffic, a sudden spike, then an exponential decay.

    The arrival intensity is a deterministic profile — ``base_rate_hz``
    until ``spike_at_s``, a linear ramp to ``peak_rate_hz`` over
    ``ramp_s``, then exponential relaxation back toward base with time
    constant ``decay_tau_s`` — sampled as a non-homogeneous Poisson
    process by thinning (draw at the peak rate, keep each arrival with
    probability ``rate(t) / peak``).  Batches are lognormal and small:
    a flash crowd is many users sending little, not one user sending much.
    """

    base_rate_hz: float = 300.0
    peak_rate_hz: float = 6_000.0
    spike_at_s: float = 3.0
    ramp_s: float = 0.5
    decay_tau_s: float = 2.0
    mean_batch: int = 16
    batch_sigma: float = 0.6
    max_batch: int = 1 << 17
    quantum_s: "float | None" = 1e-3

    def rate_at(self, t: "float | np.ndarray") -> np.ndarray:
        """The intensity profile in Hz (vectorized over ``t``)."""
        t = np.asarray(t, dtype=np.float64)
        ramp_end = self.spike_at_s + self.ramp_s
        ramp = self.base_rate_hz + (self.peak_rate_hz - self.base_rate_hz) * (
            (t - self.spike_at_s) / self.ramp_s
        )
        decay = self.base_rate_hz + (self.peak_rate_hz - self.base_rate_hz) * np.exp(
            -(t - ramp_end) / self.decay_tau_s
        )
        return np.where(
            t < self.spike_at_s,
            self.base_rate_hz,
            np.where(t < ramp_end, ramp, decay),
        )

    def _check_fields(self) -> None:
        _positive("base_rate_hz", self.base_rate_hz)
        if not self.base_rate_hz <= self.peak_rate_hz < math.inf:
            raise ValueError(
                f"peak_rate_hz must be finite and >= base_rate_hz "
                f"{self.base_rate_hz!r}, got {self.peak_rate_hz!r}"
            )
        _non_negative("spike_at_s", self.spike_at_s)
        _positive("ramp_s", self.ramp_s)
        _positive("decay_tau_s", self.decay_tau_s)
        _positive("mean_batch", self.mean_batch)
        _non_negative("batch_sigma", self.batch_sigma)
        _positive_int("max_batch", self.max_batch)
        _quantum(self.quantum_s)

    def generate(self, rng=None) -> list[tuple[float, int]]:
        gen = ensure_rng(rng)
        candidates = _exp_offsets(gen, self.peak_rate_hz, self.horizon_s)
        keep = gen.random(candidates.size) < (
            self.rate_at(candidates) / self.peak_rate_hz
        )
        times = _quantize(candidates[keep], self.quantum_s)
        batches = _clip_batch(
            np.exp(
                np.log(self.mean_batch)
                + self.batch_sigma * gen.standard_normal(times.size)
            ),
            1,
            self.max_batch,
        )
        return list(zip(times.tolist(), batches.tolist()))


@dataclass(frozen=True)
class SessionStream(ArrivalProcess):
    """Heavy-tailed per-user sessions.

    Users arrive as a Poisson process at ``session_rate_hz``; each session
    issues a geometric number of requests (mean ``1 / continue_p`` ... in
    numpy terms ``gen.geometric(continue_p)``) separated by Pareto think
    times (scale ``think_min_s``, shape ``think_alpha`` — alpha <= 1 gives
    an infinite-mean tail, the classic self-similarity driver).  Requests
    from overlapping sessions interleave; the output is the time-sorted
    union, truncated to the horizon.
    """

    session_rate_hz: float = 50.0
    continue_p: float = 0.2
    think_min_s: float = 0.05
    think_alpha: float = 1.5
    mean_batch: int = 8
    batch_sigma: float = 0.5
    max_batch: int = 1 << 17
    quantum_s: "float | None" = 1e-3

    def _check_fields(self) -> None:
        _positive("session_rate_hz", self.session_rate_hz)
        if not 0.0 < self.continue_p <= 1.0:
            raise ValueError(f"continue_p must be in (0, 1], got {self.continue_p!r}")
        _positive("think_min_s", self.think_min_s)
        _positive("think_alpha", self.think_alpha)
        _positive("mean_batch", self.mean_batch)
        _non_negative("batch_sigma", self.batch_sigma)
        _positive_int("max_batch", self.max_batch)
        _quantum(self.quantum_s)

    def generate(self, rng=None) -> list[tuple[float, int]]:
        gen = ensure_rng(rng)
        starts = _exp_offsets(gen, self.session_rate_hz, self.horizon_s)
        if starts.size == 0:
            return []
        lengths = gen.geometric(self.continue_p, size=starts.size)
        total = int(lengths.sum())
        # Segmented cumsum: think gaps flattened across sessions, zeroed at
        # each session's first request, then rebased per session.
        gaps = self.think_min_s * (1.0 + gen.pareto(self.think_alpha, size=total))
        first_idx = np.cumsum(lengths) - lengths
        gaps[first_idx] = 0.0
        cum = np.cumsum(gaps)
        offsets = cum - np.repeat(cum[first_idx], lengths)
        times = np.repeat(starts, lengths) + offsets
        batches = _clip_batch(
            np.exp(
                np.log(self.mean_batch)
                + self.batch_sigma * gen.standard_normal(times.size)
            ),
            1,
            self.max_batch,
        )
        mask = times < self.horizon_s
        times, batches = times[mask], batches[mask]
        order = np.argsort(times, kind="stable")
        times = _quantize(times[order], self.quantum_s)
        return list(zip(times.tolist(), batches[order].tolist()))
