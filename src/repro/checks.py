"""Field checks shared by the config dataclasses; every error names the field.

Comparisons are written so NaN fails them (every comparison with NaN is
False), and infinities are refused: an infinite time or horizon never
lets the event loop drain.
"""

from __future__ import annotations

import math
from numbers import Integral

__all__ = ["require_count", "require_finite"]


def require_count(name: str, value, low: int = 1) -> None:
    """Reject anything but an integer ``>= low`` (bools included)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def require_finite(name: str, value: float, positive: bool = True) -> None:
    """Reject NaN, infinities and negatives (and zero when ``positive``)."""
    if not (0.0 < value < math.inf if positive else 0.0 <= value < math.inf):
        bound = "positive" if positive else ">= 0"
        raise ValueError(f"{name} must be finite and {bound}, got {value}")
