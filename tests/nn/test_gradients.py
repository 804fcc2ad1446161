"""Numerical gradient checks: every layer's backward vs finite differences.

These are the strongest correctness tests in the nn substrate: if backprop
is right, training works; if training works, the deployed weights are real.
"""

import numpy as np
import pytest

from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D
from repro.nn.model import Sequential
from repro.nn.train import cross_entropy

EPS = 1e-3
TOL = dict(rtol=2e-2, atol=2e-4)


def loss_of(layer, x):
    """Scalar test loss: weighted sum of outputs (fixed weights)."""
    out = layer.forward_train(x)
    w = np.arange(out.size, dtype=np.float64).reshape(out.shape) / out.size
    return float(np.sum(out * w)), w.astype(np.float32)


def check_input_grad(layer, x):
    _, w = loss_of(layer, x)
    layer.forward_train(x)
    grad = layer.backward(w)
    fd = np.zeros_like(x, dtype=np.float64)
    flat_x = x.reshape(-1)
    flat_fd = fd.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + EPS
        lp, _ = loss_of(layer, x)
        flat_x[i] = orig - EPS
        lm, _ = loss_of(layer, x)
        flat_x[i] = orig
        flat_fd[i] = (lp - lm) / (2 * EPS)
    np.testing.assert_allclose(grad, fd, **TOL)


def check_param_grads(layer, x):
    _, w = loss_of(layer, x)
    layer.forward_train(x)
    layer.backward(w)
    analytic = {name: g.copy() for name, g in layer.grads()}
    for name, p in layer.params():
        flat = p.reshape(-1)
        fd = np.zeros(flat.size)
        for i in range(min(flat.size, 40)):  # sample first 40 params
            orig = flat[i]
            flat[i] = orig + EPS
            lp, _ = loss_of(layer, x)
            flat[i] = orig - EPS
            lm, _ = loss_of(layer, x)
            flat[i] = orig
            fd[i] = (lp - lm) / (2 * EPS)
        np.testing.assert_allclose(
            analytic[name].reshape(-1)[: fd[: min(flat.size, 40)].size][: 40],
            fd[: min(flat.size, 40)],
            **TOL,
        )


@pytest.fixture()
def x_dense(rng):
    return rng.standard_normal((4, 6)).astype(np.float32)


@pytest.fixture()
def x_img(rng):
    return rng.standard_normal((2, 5, 5, 2)).astype(np.float32)


class TestDenseGradients:
    @pytest.mark.parametrize("act", ["linear", "relu", "tanh", "sigmoid"])
    def test_input_grad(self, x_dense, act):
        layer = Dense(3, act)
        layer.build((6,))
        layer.init_params(np.random.default_rng(0))
        check_input_grad(layer, x_dense)

    def test_param_grads(self, x_dense):
        layer = Dense(3, "tanh")
        layer.build((6,))
        layer.init_params(np.random.default_rng(0))
        check_param_grads(layer, x_dense)


class TestConvGradients:
    @pytest.mark.parametrize("padding", ["valid", "same"])
    def test_input_grad(self, x_img, padding):
        layer = Conv2D(2, 3, activation="tanh", padding=padding)
        layer.build((5, 5, 2))
        layer.init_params(np.random.default_rng(1))
        check_input_grad(layer, x_img)

    def test_param_grads(self, x_img):
        layer = Conv2D(2, 3, activation="linear", padding="same")
        layer.build((5, 5, 2))
        layer.init_params(np.random.default_rng(1))
        check_param_grads(layer, x_img)


class TestPoolGradients:
    def test_input_grad(self, x_img):
        layer = MaxPool2D(2)
        layer.build((5, 5, 2))
        check_input_grad(layer, x_img)


class TestFlattenGradients:
    def test_input_grad(self, x_img):
        layer = Flatten()
        layer.build((5, 5, 2))
        check_input_grad(layer, x_img)


class TestEndToEndGradient:
    def test_small_cnn_loss_gradient(self, rng):
        """Full-model gradient vs finite differences through cross-entropy."""
        model = Sequential(
            [Conv2D(2, 3, padding="same"), MaxPool2D(2), Flatten(), Dense(3, "linear")],
            name="grad-check",
        ).build((4, 4, 1), rng=0)
        x = rng.standard_normal((3, 4, 4, 1)).astype(np.float32)
        y = np.array([0, 2, 1])

        def loss():
            return cross_entropy(model.forward_train(x), y)[0]

        base_loss, grad = cross_entropy(model.forward_train(x), y)
        model.backward(grad)
        analytic = {name: g.copy() for name, g in model.grads()}
        params = dict(model.params())
        for name in ["0.w", "3.w", "3.b"]:
            flat = params[name].reshape(-1)
            for i in range(0, flat.size, max(1, flat.size // 10)):
                orig = flat[i]
                flat[i] = orig + EPS
                lp = loss()
                flat[i] = orig - EPS
                lm = loss()
                flat[i] = orig
                fd = (lp - lm) / (2 * EPS)
                assert analytic[name].reshape(-1)[i] == pytest.approx(fd, rel=5e-2, abs=5e-4)
