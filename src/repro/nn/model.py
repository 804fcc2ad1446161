"""The :class:`Sequential` container used for every workload model.

A Sequential owns an ordered list of layers, propagates shapes at build
time, and exposes the inference API that the OpenCL-style execution layer
dispatches (:meth:`forward` / :meth:`predict`), plus weight import/export in
flat ``dict[str, ndarray]`` form for the Weights Building module (Fig. 2).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.errors import BuildError, ShapeError
from repro.nn.activations import softmax
from repro.nn.layers import Layer
from repro.rng import ensure_rng

__all__ = ["Sequential"]


class Sequential:
    """Ordered stack of layers with a softmax classification head.

    Parameters
    ----------
    layers:
        Layer instances, applied in order.
    name:
        Identifier used by the zoo / scheduler dataset ("mnist-deep", ...).
    """

    def __init__(self, layers: Iterable[Layer], name: str = "model"):
        self.layers: list[Layer] = list(layers)
        if not self.layers:
            raise BuildError("Sequential needs at least one layer")
        self.name = name
        self.input_shape: tuple[int, ...] | None = None
        self.output_shape: tuple[int, ...] | None = None
        self._undrawn: np.random.Generator | None = None

    # -- construction -----------------------------------------------------

    def build(
        self,
        input_shape: tuple[int, ...],
        rng: "int | np.random.Generator | None" = None,
    ) -> "Sequential":
        """Propagate ``input_shape`` (sans batch axis) through all layers.

        A shared ``Generator`` is drawn from now, so it advances as the
        caller expects.  An int seed or None draws the same numbers later,
        on the first read of the parameters (forward, forward_train,
        params): a model that only runs virtual launches never allocates.
        """
        gen = ensure_rng(rng)
        shape = tuple(int(s) for s in input_shape)
        self.input_shape = shape
        for layer in self.layers:
            shape = layer.build(shape)
        self.output_shape = shape
        self._undrawn = gen
        if gen is rng:
            self._draw()
        return self

    def _draw(self) -> None:
        """Draw the deferred parameters, once (see :meth:`build`)."""
        gen, self._undrawn = self._undrawn, None
        if gen is not None:
            for layer in self.layers:
                layer.init_params(gen)

    @property
    def built(self) -> bool:
        """Whether build() has run (shapes propagated)."""
        return self.output_shape is not None

    def _require_built(self) -> None:
        if not self.built:
            raise BuildError(f"model {self.name!r} used before build()")

    # -- inference ---------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the network on a batch; returns raw output-layer activations."""
        self._require_built()
        if x.shape[1:] != self.input_shape:
            raise ShapeError(
                f"model {self.name!r} expects input {self.input_shape}, "
                f"got array of shape {x.shape}"
            )
        self._draw()
        out = np.ascontiguousarray(x, dtype=np.float32)
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities via softmax over the output layer."""
        return softmax(self.forward(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard class labels (argmax)."""
        return np.argmax(self.forward(x), axis=1)

    def confidence(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample ``(top-1 probability, top1 - top2 margin)``.

        The two confidence signals a cascade's exit rule can threshold on
        (§ cascades): how sure the model is of its best class, and how far
        ahead that class is of the runner-up.  Both are computed from the
        softmax probabilities of :meth:`predict_proba`.  For a single-class
        head the margin equals the top-1 probability (there is no
        runner-up to subtract).
        """
        proba = self.predict_proba(x)
        if proba.shape[1] < 2:
            top1 = proba[:, 0]
            return top1, top1.copy()
        # Two largest per row without a full sort.
        part = np.partition(proba, -2, axis=1)
        top1 = part[:, -1]
        return top1, top1 - part[:, -2]

    def forward_train(self, x: np.ndarray) -> np.ndarray:
        """Training-mode forward pass retaining per-layer caches."""
        self._require_built()
        self._draw()
        out = np.ascontiguousarray(x, dtype=np.float32)
        for layer in self.layers:
            out = layer.forward_train(out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backpropagate through all layers; returns dL/d(input)."""
        g = grad_out
        for layer in reversed(self.layers):
            g = layer.backward(g)
        return g

    # -- parameters ---------------------------------------------------------

    def params(self) -> Iterator[tuple[str, np.ndarray]]:
        """Yield ``("<i>.<name>", array)`` for all trainable parameters."""
        self._draw()
        for i, layer in enumerate(self.layers):
            for name, p in layer.params():
                yield f"{i}.{name}", p

    def grads(self) -> Iterator[tuple[str, np.ndarray]]:
        for i, layer in enumerate(self.layers):
            for name, g in layer.grads():
                yield f"{i}.{name}", g

    @property
    def n_params(self) -> int:
        """Total trainable scalar parameter count (from shapes; draws nothing)."""
        return sum(layer.n_params for layer in self.layers)

    @property
    def param_nbytes(self) -> int:
        """Bytes of all parameters (float32), the weight-upload size."""
        return 4 * self.n_params

    def get_weights(self) -> dict[str, np.ndarray]:
        """Export weights as a flat dict (copies, safe to mutate)."""
        self._require_built()
        return {name: p.copy() for name, p in self.params()}

    def set_weights(self, weights: dict[str, np.ndarray]) -> None:
        """Install copies of weights produced by :meth:`get_weights`,
        after checking names and shapes against the layers' parameter
        shapes: nothing is drawn, and nothing changes on a mismatch."""
        self._require_built()
        shapes = {
            f"{i}.{name}": shape
            for i, layer in enumerate(self.layers)
            for name, shape in zip(layer.param_names, layer.param_shapes())
        }
        missing = shapes.keys() - weights.keys()
        extra = weights.keys() - shapes.keys()
        if missing or extra:
            raise BuildError(
                f"weight dict mismatch for {self.name!r}: "
                f"missing={sorted(missing)}, unexpected={sorted(extra)}"
            )
        arrays = {}
        for name, shape in shapes.items():
            array = arrays[name] = np.array(weights[name], dtype=np.float32)
            if array.shape != shape:
                raise ShapeError(
                    f"weight {name!r}: expected shape {shape}, got {array.shape}"
                )
        self._undrawn = None
        for i, layer in enumerate(self.layers):
            for name in layer.param_names:
                setattr(layer, name, arrays[f"{i}.{name}"])

    def save_weights(self, path) -> None:
        """Persist weights to an ``.npz`` file."""
        np.savez(path, **self.get_weights())

    def load_weights(self, path) -> None:
        """Load weights persisted by :meth:`save_weights`."""
        with np.load(path) as data:
            self.set_weights({k: data[k] for k in data.files})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(l) for l in self.layers)
        return f"Sequential(name={self.name!r}, layers=[{inner}])"
