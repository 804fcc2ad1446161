"""Inference kernels: the two compute kernels of §IV-B.

The paper develops one kernel family per network type (feed-forward and
convolutional), parallelized thread-per-node with a second level of
parallelism across samples.  Here a kernel is a :class:`ModelSpec` bound to
(optionally) trained weights; launching it on a queue runs the real numpy
forward pass — the vectorized batch dimension *is* the sample-level
parallelism — while the cost model accounts what the launch would cost on
the target device.
"""

from __future__ import annotations

import numpy as np

from repro.errors import KernelError
from repro.nn.builders import ModelSpec, build_model
from repro.nn.model import Sequential

__all__ = ["InferenceKernel"]


class InferenceKernel:
    """A compiled classification kernel for one model architecture.

    Parameters
    ----------
    spec:
        The model architecture (drives the cost model).
    model:
        A built :class:`~repro.nn.model.Sequential` with (ideally trained)
        weights.  ``None`` builds a seed-0 default one, whose weights are
        drawn on its first forward pass.
    """

    def __init__(self, spec: ModelSpec, model: Sequential | None = None):
        if model is not None:
            if not model.built:
                raise KernelError(f"model for kernel {spec.name!r} is not built")
            if model.input_shape != tuple(spec.input_shape):
                raise KernelError(
                    f"kernel {spec.name!r}: model input {model.input_shape} "
                    f"!= spec input {tuple(spec.input_shape)}"
                )
        self.spec = spec
        self.model = build_model(spec, rng=0) if model is None else model

    @property
    def name(self) -> str:
        """The model architecture's name."""
        return self.spec.name

    def bind_weights(self, weights: dict[str, np.ndarray]) -> None:
        """Load trained weights (the Weights Building hand-off of Fig. 2)."""
        self.model.set_weights(weights)

    def run(self, x: np.ndarray) -> np.ndarray:
        """Execute the forward pass; returns output-layer scores.

        This is the *functional* half of a launch — the timing half lives
        in the command queue.  The result is bit-identical on every device
        (they all run the same portable kernel, §IV).
        """
        if x.ndim < 2:
            raise KernelError(
                f"kernel {self.name!r} expects a batch (N, ...), got shape {x.shape}"
            )
        return self.model.forward(x)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InferenceKernel({self.name!r})"
