"""Serving-side telemetry: tail latencies, queue depths, batch shapes.

The characterization half of this package measures *one launch at a time*
(:class:`~repro.telemetry.metrics.Measurement`); a serving frontend needs
the complementary aggregate view — exact latency percentiles over every
served request, each model queue's peak depth, the distribution of
coalesced batch sizes, and counters for shed / SLO-violating requests.
These collectors are deliberately dependency-free so every layer (queues,
coalescer, workers, frontend) can deposit into one shared
:class:`ServingTelemetry` instance.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LatencyDigest",
    "RollingLatencyWindow",
    "BatchHistogram",
    "ServingTelemetry",
]


def _check_latency(latency_s: float) -> float:
    """``latency_s`` as a float, or ValueError unless finite and >= 0."""
    latency_s = float(latency_s)
    if not (math.isfinite(latency_s) and latency_s >= 0.0):
        raise ValueError(f"latency_s must be finite and >= 0, got {latency_s}")
    return latency_s


class LatencyDigest:
    """Collects latency samples and reports exact percentiles (p50/p95/p99).

    Every sample is kept as a raw double (8 B each) and every percentile
    is :func:`np.percentile` over all of them, so a node's tail and the
    fleet's merged tail are exact at any uptime.
    """

    def __init__(self) -> None:
        self._samples = array("d")

    def add(self, latency_s: float) -> None:
        """Record one request's arrival-to-completion latency."""
        latency_s = _check_latency(latency_s)
        self._samples.append(latency_s)

    def __len__(self) -> int:
        return len(self._samples)

    def percentile(self, q: float) -> float:
        """q-th percentile of recorded latency in seconds."""
        if not self._samples:
            raise ValueError("no latency samples recorded")
        return float(np.percentile(self._samples, q))

    @property
    def p50_s(self) -> float:
        return self.percentile(50.0)

    @property
    def p95_s(self) -> float:
        return self.percentile(95.0)

    @property
    def p99_s(self) -> float:
        return self.percentile(99.0)

    @property
    def mean_s(self) -> float:
        if not self._samples:
            raise ValueError("no latency samples recorded")
        return float(np.mean(self._samples))

    @property
    def samples(self) -> tuple[float, ...]:
        """Every recorded sample, in arrival order."""
        return tuple(self._samples)


class RollingLatencyWindow:
    """Bounded window of the most recent latency samples.

    The full :class:`LatencyDigest` keeps every sample, so its percentiles
    are an all-time view and cost O(n log n) per query.  A load balancer or
    autoscaler polling nodes every few milliseconds wants the *recent* tail
    at a bounded cost: this window keeps only the last ``maxlen`` samples,
    making percentile queries O(maxlen log maxlen) regardless of uptime.
    """

    def __init__(self, maxlen: int = 256):
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        self.maxlen = maxlen
        self._window: deque[float] = deque(maxlen=maxlen)
        # Percentile queries vastly outnumber samples in a fleet (every
        # routing probe reads p99, only completions add), so answers are
        # memoized per quantile until the window next changes.
        self._memo: dict[float, float] = {}

    def add(self, latency_s: float) -> None:
        """Record one latency sample (oldest samples roll off)."""
        self._window.append(_check_latency(latency_s))
        if self._memo:
            self._memo.clear()

    def __len__(self) -> int:
        return len(self._window)

    def percentile(self, q: float) -> "float | None":
        """q-th percentile over the window (None while empty); memoized
        until the next :meth:`add`."""
        if not self._window:
            return None
        q = float(q)
        hit = self._memo.get(q)
        if hit is not None:
            return hit
        value = float(np.percentile(list(self._window), q))
        self._memo[q] = value
        return value

    @property
    def p99_s(self) -> "float | None":
        return self.percentile(99.0)

    @property
    def samples(self) -> tuple[float, ...]:
        """The windowed samples, oldest first."""
        return tuple(self._window)


class BatchHistogram:
    """Power-of-two histogram of coalesced batch sizes (in samples)."""

    def __init__(self) -> None:
        self._counts: dict[int, int] = {}
        self._n = 0
        self._total = 0

    def add(self, samples: int) -> None:
        """Record one dispatched batch of ``samples`` total samples."""
        if samples <= 0:
            raise ValueError(f"batch must be positive, got {samples}")
        bucket = int(samples).bit_length() - 1   # exact floor(log2)
        self._counts[bucket] = self._counts.get(bucket, 0) + 1
        self._n += 1
        self._total += samples

    def __len__(self) -> int:
        return self._n

    @property
    def counts(self) -> dict[int, int]:
        """Bucket (floor log2 of samples) -> number of batches."""
        return dict(sorted(self._counts.items()))

    @property
    def mean_samples(self) -> float:
        """Mean samples per dispatched batch."""
        if self._n == 0:
            raise ValueError("no batches recorded")
        return self._total / self._n


@dataclass
class ServingTelemetry:
    """Everything the serving frontend emits, in one sink.

    * ``latency`` — per-request arrival→completion digest (served only).
    * ``recent`` — rolling window of the latest latencies (cheap tail).
    * ``peak_depth`` — per-model peak queue depth.
    * ``batch_sizes`` — histogram of coalesced batch sizes.
    * counters — served / shed / degraded / SLO-violation totals.

    A tenant's isolation ledger is one of these too (``tenants``), and
    every rollup — a fleet over its nodes, a tenant over its nodes — is
    one :meth:`merge`.
    """

    latency: LatencyDigest = field(default_factory=LatencyDigest)
    recent: RollingLatencyWindow = field(default_factory=RollingLatencyWindow)
    peak_depth: dict[str, int] = field(default_factory=dict)
    batch_sizes: BatchHistogram = field(default_factory=BatchHistogram)
    n_served: int = 0
    n_shed: int = 0
    n_degraded: int = 0
    n_violations: int = 0
    n_failed: int = 0    # transient launch failures (fault injection)
    # Optional cascade attachment: any object with a snapshot() -> dict
    # (a repro.cascade CascadeTelemetry).  Set by the CascadeExecutor when
    # a cascade serves through this frontend; surfaced in snapshot().
    cascade: "object | None" = None
    # Per-tenant isolation ledgers: every outcome of a tenant's models
    # lands there too.  Empty unless the frontend was given a TenantSet,
    # so single-tenant snapshots stay byte-identical.
    tenants: "dict[str, ServingTelemetry]" = field(default_factory=dict)
    # Optional online-predictor attachment: a zero-arg callable returning
    # the online refresh stats dict, or None when no online predictor is
    # installed (see BacklogAwareScheduler.online_stats).  The frontend
    # wires this unconditionally; the block only appears in snapshots when
    # the callable yields something, so frozen-predictor snapshots stay
    # byte-identical.
    online: "object | None" = None

    def record_latency(self, latencies_s) -> None:
        """Record one batch's served latencies in both digests at once;
        a bad sample (not finite, or < 0) raises before any is stored."""
        samples = array("d", latencies_s)
        if samples and not (
            min(samples) >= 0.0 and math.isfinite(sum(samples))
        ):
            for latency_s in samples:
                _check_latency(latency_s)
        self.latency._samples.extend(samples)
        recent = self.recent
        recent._window.extend(samples)
        if recent._memo:
            recent._memo.clear()

    def record_served(self, latencies_s, lates) -> None:
        """Record one batch's served requests: their latencies and their
        late flags (True where the request missed its deadline)."""
        self.record_latency(latencies_s)
        self.n_served += len(latencies_s)
        self.n_violations += sum(lates)

    def record_depth(self, model: str, depth: int) -> None:
        """Record one model queue's current depth (keeps the peak)."""
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        if depth > self.peak_depth.get(model, 0):
            self.peak_depth[model] = int(depth)

    @classmethod
    def merge(cls, sinks) -> "ServingTelemetry":
        """One sink holding every given sink's outcomes.

        Counters and batch histograms sum; latency samples and recent
        windows concatenate in the given order (the merged window is as
        long as all of them together, so it keeps every recent sample);
        each model's peak depth is the largest; tenant ledgers merge per
        tenant.  Attachments (cascade, online) are not carried over.
        """
        sinks = list(sinks)
        merged = cls(recent=RollingLatencyWindow(
            max(1, sum(s.recent.maxlen for s in sinks))
        ))
        hist, peak = merged.batch_sizes, merged.peak_depth
        for sink in sinks:
            merged.latency._samples.extend(sink.latency._samples)
            merged.recent._window.extend(sink.recent._window)
            for model, depth in sink.peak_depth.items():
                peak[model] = max(depth, peak.get(model, 0))
            other = sink.batch_sizes
            for bucket, n in other._counts.items():
                hist._counts[bucket] = hist._counts.get(bucket, 0) + n
            hist._n += other._n
            hist._total += other._total
            merged.n_served += sink.n_served
            merged.n_shed += sink.n_shed
            merged.n_degraded += sink.n_degraded
            merged.n_violations += sink.n_violations
            merged.n_failed += sink.n_failed
        merged.tenants = {
            name: cls.merge(s.tenants[name] for s in sinks if name in s.tenants)
            for name in dict.fromkeys(name for s in sinks for name in s.tenants)
        }
        return merged

    @property
    def max_queue_depth(self) -> int:
        """Peak depth across every model queue."""
        return max(self.peak_depth.values(), default=0)

    @property
    def shed_rate(self) -> float:
        """Fraction of submitted requests that were shed."""
        total = self.n_served + self.n_shed
        return self.n_shed / total if total else 0.0

    def snapshot(self) -> dict:
        """A plain-dict summary (for stats()/logging/benchmarks)."""
        out: dict = {
            "served": self.n_served,
            "shed": self.n_shed,
            "degraded": self.n_degraded,
            "violations": self.n_violations,
            "shed_rate": self.shed_rate,
            "max_queue_depth": self.max_queue_depth,
        }
        if self.n_failed:
            out["failed"] = self.n_failed
        if len(self.latency):
            out.update(
                p50_ms=self.latency.p50_s * 1e3,
                p95_ms=self.latency.p95_s * 1e3,
                p99_ms=self.latency.p99_s * 1e3,
            )
        if len(self.recent):
            out["recent_p99_ms"] = self.recent.p99_s * 1e3
        if len(self.batch_sizes):
            out["mean_batch_samples"] = self.batch_sizes.mean_samples
        if self.cascade is not None:
            out["cascade"] = self.cascade.snapshot()
        if self.online is not None:
            online = self.online()
            if online:
                out["online"] = online
        if self.tenants:
            out["tenants"] = {
                name: stats.snapshot()
                for name, stats in sorted(self.tenants.items())
            }
        return out
