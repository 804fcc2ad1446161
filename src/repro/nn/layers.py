"""Layers for the paper's two network families (FFNN and CNN, §II-B).

Design notes
------------
* Batch-major layout: dense inputs are ``(N, features)``; image inputs are
  ``(N, H, W, C)`` ("row-major per sample" — the access order the paper
  settles on in §IV-B after finding transposition not worth it).
* Convolution is implemented with an im2col gather followed by a single
  GEMM — the standard way to make conv fast in pure numpy, and the same
  dataflow the paper's OpenCL kernel uses (all filters of a layer computed
  in parallel as one matrix product).
* Every layer supports both ``forward`` (inference, no state retained) and
  ``forward_train``/``backward`` (training with cached intermediates), so
  the zoo models are trained with real gradients rather than shipped with
  random weights.
* ``build`` propagates shapes only and ``init_params`` draws the weights,
  so a model's size is known before (or without) allocating it.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.errors import ShapeError
from repro.nn.activations import Activation, get_activation
from repro.nn.initializers import get_initializer, zeros

__all__ = ["Layer", "Dense", "Conv2D", "MaxPool2D", "Flatten", "im2col_indices"]


class Layer:
    """Abstract layer: shape propagation, parameters, forward/backward."""

    #: Human-readable type tag used in reprs and FLOP reports.
    kind: str = "layer"
    #: Attribute names of the trainable parameters, in :meth:`params` order.
    param_names: tuple[str, ...] = ()

    def build(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Propagate ``input_shape`` (without the batch axis); allocate nothing.

        Returns the output shape (without the batch axis).  Must be called
        exactly once, then :meth:`init_params`, before ``forward``.
        """
        raise NotImplementedError

    def init_params(self, rng: np.random.Generator) -> None:
        """Draw the parameters :meth:`param_shapes` describes from ``rng``."""
        return None

    def param_shapes(self) -> tuple[tuple[int, ...], ...]:
        """Shapes of the trainable parameters, in :meth:`params` order."""
        return ()

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Inference pass; does not retain intermediates."""
        raise NotImplementedError

    def forward_train(self, x: np.ndarray) -> np.ndarray:
        """Training pass; caches what ``backward`` needs."""
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backprop ``dL/d(output)`` to ``dL/d(input)``; stores param grads."""
        raise NotImplementedError

    def params(self) -> Iterator[tuple[str, np.ndarray]]:
        """Yield ``(name, array)`` for each trainable parameter."""
        return iter(())

    def grads(self) -> Iterator[tuple[str, np.ndarray]]:
        """Yield ``(name, array)`` gradients matching :meth:`params` order."""
        return iter(())

    @property
    def n_params(self) -> int:
        """Total trainable scalar parameters (from the built shapes)."""
        return sum(math.prod(shape) for shape in self.param_shapes())

    def _check_built(self) -> None:
        if getattr(self, "output_shape", None) is None:
            raise ShapeError(f"{type(self).__name__} used before build()")


class _Weighted(Layer):
    """A layer with one weight matrix ``w`` (drawn) and one bias ``b`` (zeros)."""

    param_names = ("w", "b")

    def __init__(self, activation: "str | Activation", kernel_init: str):
        self.activation = get_activation(activation)
        self._init_name = kernel_init
        self.w: np.ndarray | None = None
        self.b: np.ndarray | None = None
        self.dw: np.ndarray | None = None
        self.db: np.ndarray | None = None
        self.input_shape: tuple[int, ...] | None = None
        self.output_shape: tuple[int, ...] | None = None
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def _fan_out(self) -> int:
        raise NotImplementedError

    def init_params(self, rng: np.random.Generator) -> None:
        w_shape, b_shape = self.param_shapes()
        init = get_initializer(self._init_name)
        self.w = init(w_shape, w_shape[0], self._fan_out(), rng)
        self.b = zeros(b_shape)

    def params(self) -> Iterator[tuple[str, np.ndarray]]:
        if self.w is not None:
            yield "w", self.w
            yield "b", self.b

    def grads(self) -> Iterator[tuple[str, np.ndarray]]:
        if self.dw is not None:
            yield "w", self.dw
            yield "b", self.db


class Dense(_Weighted):
    """Fully-connected layer: ``y = act(x @ W + b)``.

    This is the perceptron-layer of §II-B1: each output node aggregates the
    weighted inputs, optionally through relu/tanh/sigmoid.
    """

    kind = "dense"

    def __init__(self, units: int, activation: "str | Activation" = "relu",
                 kernel_init: str = "he_normal"):
        if units <= 0:
            raise ValueError(f"units must be positive, got {units}")
        super().__init__(activation, kernel_init)
        self.units = int(units)

    def build(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 1:
            raise ShapeError(
                f"Dense expects flat input, got shape {input_shape}; add Flatten first"
            )
        self.input_shape = input_shape
        self.output_shape = (self.units,)
        return self.output_shape

    def param_shapes(self) -> tuple[tuple[int, ...], ...]:
        return (int(self.input_shape[0]), self.units), (self.units,)

    def _fan_out(self) -> int:
        return self.units

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._check_built()
        return self.activation(x @ self.w + self.b)

    def forward_train(self, x: np.ndarray) -> np.ndarray:
        self._check_built()
        z = x @ self.w + self.b
        self._cache = (x, z)
        return self.activation(z)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("backward() before forward_train()")
        x, z = self._cache
        dz = grad_out * self.activation.derivative(z)
        self.dw = x.T @ dz
        self.db = dz.sum(axis=0)
        self._cache = None
        return dz @ self.w.T

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dense(units={self.units}, activation={self.activation.name!r})"


def im2col_indices(
    h: int, w: int, kh: int, kw: int, stride: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Return (row, col) gather indices for an im2col of a (H, W) plane.

    Output arrays have shape ``(out_h*out_w, kh*kw)``; indexing an image
    ``img[rows, cols]`` yields every receptive field as a row — the gather
    that turns convolution into a GEMM.
    """
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ShapeError(f"kernel ({kh}x{kw}) larger than input ({h}x{w})")
    # Top-left corner of each receptive field.
    base_r = stride * np.repeat(np.arange(out_h), out_w)
    base_c = stride * np.tile(np.arange(out_w), out_h)
    # Offsets within a receptive field.
    off_r = np.repeat(np.arange(kh), kw)
    off_c = np.tile(np.arange(kw), kh)
    rows = base_r[:, None] + off_r[None, :]
    cols = base_c[:, None] + off_c[None, :]
    return rows, cols


class Conv2D(_Weighted):
    """Valid (unpadded) 2-D convolution with ``filters`` output channels.

    The paper's CNN kernels use 3x3 filters exclusively; this layer is
    general over square/rectangular kernels and strides.  Implementation is
    im2col + one GEMM per batch, vectorized over samples and filters.
    """

    kind = "conv2d"

    def __init__(self, filters: int, kernel_size: int = 3,
                 activation: "str | Activation" = "relu", stride: int = 1,
                 padding: str = "valid", kernel_init: str = "he_normal"):
        if filters <= 0:
            raise ValueError(f"filters must be positive, got {filters}")
        if kernel_size <= 0:
            raise ValueError(f"kernel_size must be positive, got {kernel_size}")
        if stride <= 0:
            raise ValueError(f"stride must be positive, got {stride}")
        if padding not in ("valid", "same"):
            raise ValueError(f"padding must be 'valid' or 'same', got {padding!r}")
        super().__init__(activation, kernel_init)  # w: (kh*kw*C_in, filters)
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = padding
        self._pad: tuple[int, int] = (0, 0)
        self._rows: np.ndarray | None = None
        self._cols: np.ndarray | None = None

    def build(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 3:
            raise ShapeError(f"Conv2D expects (H, W, C) input, got {input_shape}")
        h, w, c_in = map(int, input_shape)
        k = self.kernel_size
        if self.padding == "same":
            # Symmetric-ish zero pad so out = ceil(in / stride); for the
            # stride-1 3x3 case this is one pixel each side, as in VGG.
            pad_total = k - 1
            self._pad = (pad_total // 2, pad_total - pad_total // 2)
        ph = h + self._pad[0] + self._pad[1]
        pw = w + self._pad[0] + self._pad[1]
        self._rows, self._cols = im2col_indices(ph, pw, k, k, self.stride)
        out_h = (ph - k) // self.stride + 1
        out_w = (pw - k) // self.stride + 1
        self.input_shape = (h, w, c_in)
        self.output_shape = (out_h, out_w, self.filters)
        return self.output_shape

    def param_shapes(self) -> tuple[tuple[int, ...], ...]:
        fan_in = self.kernel_size * self.kernel_size * self.input_shape[2]
        return (fan_in, self.filters), (self.filters,)

    def _fan_out(self) -> int:
        return self.kernel_size * self.kernel_size * self.filters

    def _padded(self, x: np.ndarray) -> np.ndarray:
        if self._pad == (0, 0):
            return x
        lo, hi = self._pad
        return np.pad(x, ((0, 0), (lo, hi), (lo, hi), (0, 0)))

    def _im2col(self, x: np.ndarray) -> np.ndarray:
        """(N, H, W, C) -> (N, out_h*out_w, kh*kw*C) patch matrix."""
        # Gather: x[:, rows, cols, :] has shape (N, P, K, C) where
        # P = out_h*out_w and K = kh*kw; reshape merges (K, C) -> features.
        patches = self._padded(x)[:, self._rows, self._cols, :]
        n, p, k, c = patches.shape
        return patches.reshape(n, p, k * c)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._check_built()
        self._validate_input(x)
        cols = self._im2col(x)
        z = cols @ self.w + self.b
        out_h, out_w, f = self.output_shape
        return self.activation(z).reshape(x.shape[0], out_h, out_w, f)

    def forward_train(self, x: np.ndarray) -> np.ndarray:
        self._check_built()
        self._validate_input(x)
        cols = self._im2col(x)
        z = cols @ self.w + self.b
        self._cache = (x, z)
        out_h, out_w, f = self.output_shape
        return self.activation(z).reshape(x.shape[0], out_h, out_w, f)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("backward() before forward_train()")
        x, z = self._cache
        n = x.shape[0]
        out_h, out_w, f = self.output_shape
        dz = grad_out.reshape(n, out_h * out_w, f) * self.activation.derivative(z)
        cols = self._im2col(x)
        # (F, P·N) x (P·N, K·C): accumulate over batch and positions.
        self.dw = np.einsum("npk,npf->kf", cols, dz, optimize=True)
        self.db = dz.sum(axis=(0, 1))
        # Scatter-add dcols back to the (padded) input image positions.
        dcols = dz @ self.w.T  # (N, P, K*C)
        h, w, c = self.input_shape
        k2 = self.kernel_size * self.kernel_size
        dcols = dcols.reshape(n, -1, k2, c)
        lo, hi = self._pad
        dx_pad = np.zeros((n, h + lo + hi, w + lo + hi, c), dtype=x.dtype)
        np.add.at(dx_pad, (slice(None), self._rows, self._cols, slice(None)), dcols)
        dx = dx_pad[:, lo : lo + h, lo : lo + w, :] if (lo or hi) else dx_pad
        self._cache = None
        return dx

    def _validate_input(self, x: np.ndarray) -> None:
        if x.ndim != 4 or x.shape[1:] != self.input_shape:
            raise ShapeError(
                f"Conv2D built for input {self.input_shape}, got array of shape {x.shape}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Conv2D(filters={self.filters}, kernel_size={self.kernel_size}, "
            f"activation={self.activation.name!r})"
        )


class MaxPool2D(Layer):
    """Non-overlapping max pooling (pool == stride), as in every VGG block."""

    kind = "maxpool2d"

    def __init__(self, pool_size: int = 2):
        if pool_size <= 0:
            raise ValueError(f"pool_size must be positive, got {pool_size}")
        self.pool_size = int(pool_size)
        self.input_shape: tuple[int, ...] | None = None
        self.output_shape: tuple[int, ...] | None = None
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def build(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 3:
            raise ShapeError(f"MaxPool2D expects (H, W, C) input, got {input_shape}")
        h, w, c = map(int, input_shape)
        p = self.pool_size
        if h < p or w < p:
            raise ShapeError(f"pool {p}x{p} larger than input {h}x{w}")
        self.input_shape = (h, w, c)
        self.output_shape = (h // p, w // p, c)
        return self.output_shape

    def _window_view(self, x: np.ndarray) -> np.ndarray:
        """Trim to a multiple of pool and reshape to expose pool windows."""
        p = self.pool_size
        oh, ow, c = self.output_shape
        trimmed = x[:, : oh * p, : ow * p, :]
        return trimmed.reshape(x.shape[0], oh, p, ow, p, c)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._check_built()
        return self._window_view(x).max(axis=(2, 4))

    def forward_train(self, x: np.ndarray) -> np.ndarray:
        self._check_built()
        windows = self._window_view(x)
        out = windows.max(axis=(2, 4))
        self._cache = (x, out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("backward() before forward_train()")
        x, out = self._cache
        p = self.pool_size
        oh, ow, c = self.output_shape
        windows = self._window_view(x)
        # Route gradient to argmax positions (ties split the gradient; with
        # float activations ties have measure zero so this matches argmax).
        mask = windows == out[:, :, None, :, None, :]
        counts = mask.sum(axis=(2, 4), keepdims=True)
        g = grad_out[:, :, None, :, None, :] * mask / counts
        dx = np.zeros_like(x)
        dx[:, : oh * p, : ow * p, :] = g.reshape(x.shape[0], oh * p, ow * p, c)
        self._cache = None
        return dx

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MaxPool2D(pool_size={self.pool_size})"


class Flatten(Layer):
    """Flatten per-sample tensors to vectors (the CNN->FFNN junction)."""

    kind = "flatten"

    def __init__(self) -> None:
        self.input_shape: tuple[int, ...] | None = None
        self.output_shape: tuple[int, ...] | None = None

    def build(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        self.input_shape = tuple(map(int, input_shape))
        self.output_shape = (int(np.prod(input_shape)),)
        return self.output_shape

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._check_built()
        return x.reshape(x.shape[0], -1)

    forward_train = forward

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self._check_built()
        return grad_out.reshape(grad_out.shape[0], *self.input_shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Flatten()"
