"""Field checks shared by configs and submit paths; every error names the field.

Comparisons are written so NaN fails them (every comparison with NaN is
False), and infinities are refused: an infinite time or horizon never
lets the event loop drain.
"""

from __future__ import annotations

import math
from numbers import Integral

import numpy as np

__all__ = ["require_count", "require_finite", "require_host_batch"]


def require_count(name: str, value, low: int = 1) -> None:
    """Reject anything but an integer ``>= low`` (bools included)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def require_finite(name: str, value: float, positive: bool = True) -> None:
    """Reject NaN, infinities and negatives (and zero when ``positive``)."""
    if not (0.0 < value < math.inf if positive else 0.0 <= value < math.inf):
        bound = "positive" if positive else ">= 0"
        raise ValueError(f"{name} must be finite and {bound}, got {value}")


def require_host_batch(x, spec, batch: "int | None" = None) -> None:
    """Reject host samples ``x`` unless they are rows of ``spec``'s input
    (``batch`` rows, when given)."""
    shape = np.shape(x)
    fits = bool(shape) and shape[1:] == tuple(spec.input_shape)
    if not fits or (batch is not None and shape[0] != batch):
        dims = ", ".join(map(str, spec.input_shape))
        raise ValueError(
            f"x for model {spec.name!r} must have shape "
            f"({'n' if batch is None else batch}, {dims}), got {shape}"
        )
