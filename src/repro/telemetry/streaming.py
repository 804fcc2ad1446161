"""Streaming quantile estimation: the P² algorithm (Jain & Chlamtac 1985).

Sort-based percentiles over an ever-growing sample list cost O(n log n)
per query and O(n) memory.  :class:`P2Quantile` tracks one quantile with
*five* markers updated in O(1) per observation: the classic
piecewise-parabolic (P²) interpolation of the empirical quantile curve,
no samples retained.  The online predictor tracks per-cell residual
quantiles with it; serving latency tails stay exact
(:class:`~repro.telemetry.serving.LatencyDigest`).

Accuracy is excellent on smooth distributions and within a few percent of
exact even on adversarial ones (constant, sorted-ascending, heavy-tailed,
bimodal — see the property tests).  The documented blind spot, shared by
every fixed-marker streaming estimator, is a *monotonically decreasing*
stream: a high quantile's markers anchor low early and cannot recover.
"""

from __future__ import annotations

import numpy as np

__all__ = ["P2Quantile"]


class P2Quantile:
    """One streaming quantile estimate in O(1) memory and update time.

    Parameters
    ----------
    q:
        The target quantile in percent, e.g. ``99.0`` for p99 (percent to
        match :func:`np.percentile`'s convention).
    """

    __slots__ = ("q", "_p", "_heights", "_pos", "_desired", "_incr", "_n")

    def __init__(self, q: float):
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"quantile must be in [0, 100], got {q}")
        self.q = float(q)
        self._p = self.q / 100.0
        p = self._p
        self._heights: list[float] = []    # marker heights q0..q4
        self._pos = [0.0, 1.0, 2.0, 3.0, 4.0]          # marker positions
        self._desired = [0.0, 2 * p, 4 * p, 2 + 2 * p, 4.0]
        self._incr = (0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def add(self, x: float) -> None:
        """Fold one observation into the estimate."""
        x = float(x)
        self._n += 1
        heights = self._heights
        if len(heights) < 5:
            # Warm-up: the first five observations become the markers.
            heights.append(x)
            heights.sort()
            return

        pos, desired = self._pos, self._desired

        # Locate the cell containing x, clamping the extremes.
        if x < heights[0]:
            heights[0] = x
            k = 0
        elif x >= heights[4]:
            heights[4] = x
            k = 3
        else:
            k = 0
            while k < 3 and x >= heights[k + 1]:
                k += 1

        for i in range(k + 1, 5):
            pos[i] += 1.0
        for i in range(5):
            desired[i] += self._incr[i]

        # Nudge the three interior markers toward their desired positions.
        for i in (1, 2, 3):
            d = desired[i] - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1.0) or (
                d <= -1.0 and pos[i - 1] - pos[i] < -1.0
            ):
                d = 1.0 if d > 0.0 else -1.0
                candidate = self._parabolic(i, d)
                if not heights[i - 1] < candidate < heights[i + 1]:
                    candidate = self._linear(i, int(d))
                heights[i] = candidate
                pos[i] += d

    def _parabolic(self, i: int, d: float) -> float:
        h, n = self._heights, self._pos
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: int) -> float:
        h, n = self._heights, self._pos
        return h[i] + d * (h[i + d] - h[i]) / (n[i + d] - n[i])

    def extend(self, xs) -> None:
        """Fold a batch of observations (e.g. to seed from exact history)."""
        for x in xs:
            self.add(x)

    def estimate(self) -> float:
        """Current quantile estimate (exact while under five samples)."""
        if self._n == 0:
            raise ValueError("no samples recorded")
        if self._n < 5:
            return float(np.percentile(self._heights[: self._n], self.q))
        return float(self._heights[2])
