"""Layer forward semantics (shapes, values, validation)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, im2col_indices


def built(layer, shape, seed=0):
    layer.build(tuple(shape))
    layer.init_params(np.random.default_rng(seed))
    return layer


class TestDense:
    def test_output_shape(self, rng):
        layer = built(Dense(7, "relu"), (5,))
        out = layer.forward(rng.standard_normal((3, 5)).astype(np.float32))
        assert out.shape == (3, 7)

    def test_linear_matches_matmul(self, rng):
        layer = built(Dense(4, "linear"), (6,))
        x = rng.standard_normal((2, 6)).astype(np.float32)
        np.testing.assert_allclose(
            layer.forward(x), x @ layer.w + layer.b, rtol=1e-6
        )

    def test_relu_nonnegative(self, rng):
        layer = built(Dense(16, "relu"), (8,))
        out = layer.forward(rng.standard_normal((10, 8)).astype(np.float32))
        assert np.all(out >= 0)

    def test_param_count(self):
        layer = built(Dense(10), (20,))
        assert layer.n_params == 20 * 10 + 10

    def test_requires_flat_input(self):
        with pytest.raises(ShapeError, match="Flatten"):
            built(Dense(3), (4, 4, 1))

    def test_use_before_build(self):
        with pytest.raises(ShapeError, match="build"):
            Dense(3).forward(np.zeros((1, 4), dtype=np.float32))

    def test_rejects_nonpositive_units(self):
        with pytest.raises(ValueError):
            Dense(0)


class TestIm2col:
    def test_shapes(self):
        rows, cols = im2col_indices(5, 5, 3, 3)
        assert rows.shape == (9, 9)
        assert cols.shape == (9, 9)

    def test_first_patch_is_topleft(self):
        rows, cols = im2col_indices(4, 4, 2, 2)
        np.testing.assert_array_equal(rows[0], [0, 0, 1, 1])
        np.testing.assert_array_equal(cols[0], [0, 1, 0, 1])

    def test_stride(self):
        rows, _ = im2col_indices(6, 6, 2, 2, stride=2)
        assert rows.shape[0] == 9  # 3x3 output positions

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError):
            im2col_indices(2, 2, 3, 3)


class TestConv2D:
    def test_valid_output_shape(self):
        layer = built(Conv2D(8, 3, padding="valid"), (10, 10, 3))
        assert layer.output_shape == (8, 8, 8)

    def test_same_output_shape(self):
        layer = built(Conv2D(8, 3, padding="same"), (10, 10, 3))
        assert layer.output_shape == (10, 10, 8)

    def test_matches_naive_convolution(self, rng):
        layer = built(Conv2D(2, 3, activation="linear", padding="valid"), (5, 5, 2), seed=1)
        x = rng.standard_normal((1, 5, 5, 2)).astype(np.float32)
        out = layer.forward(x)
        w = layer.w.reshape(3, 3, 2, 2)  # (kh, kw, cin, f)
        expected = np.zeros((3, 3, 2), dtype=np.float32)
        for i in range(3):
            for j in range(3):
                patch = x[0, i : i + 3, j : j + 3, :]
                for f in range(2):
                    expected[i, j, f] = np.sum(patch * w[:, :, :, f]) + layer.b[f]
        np.testing.assert_allclose(out[0], expected, rtol=1e-4, atol=1e-5)

    def test_same_padding_zero_border_effect(self, rng):
        # Constant-zero input -> output equals the bias everywhere.
        layer = built(Conv2D(3, 3, activation="linear", padding="same"), (6, 6, 1))
        out = layer.forward(np.zeros((1, 6, 6, 1), dtype=np.float32))
        np.testing.assert_allclose(out[0], np.broadcast_to(layer.b, (6, 6, 3)), atol=1e-7)

    def test_rejects_wrong_input_shape(self, rng):
        layer = built(Conv2D(4, 3), (8, 8, 1))
        with pytest.raises(ShapeError):
            layer.forward(rng.standard_normal((2, 9, 9, 1)).astype(np.float32))

    def test_rejects_bad_padding(self):
        with pytest.raises(ValueError):
            Conv2D(4, 3, padding="full")

    def test_needs_hwc_input(self):
        with pytest.raises(ShapeError):
            built(Conv2D(4, 3), (8, 8))

    def test_batch_independence(self, rng):
        layer = built(Conv2D(4, 3), (6, 6, 1), seed=2)
        x = rng.standard_normal((3, 6, 6, 1)).astype(np.float32)
        full = layer.forward(x)
        single = layer.forward(x[1:2])
        np.testing.assert_allclose(full[1:2], single, rtol=1e-6)


class TestMaxPool2D:
    def test_output_shape(self):
        layer = built(MaxPool2D(2), (8, 8, 3))
        assert layer.output_shape == (4, 4, 3)

    def test_takes_window_max(self):
        layer = built(MaxPool2D(2), (2, 2, 1))
        x = np.array([[[[1.0], [5.0]], [[3.0], [2.0]]]], dtype=np.float32)
        assert layer.forward(x)[0, 0, 0, 0] == 5.0

    def test_odd_size_trims(self):
        layer = built(MaxPool2D(2), (5, 5, 1))
        assert layer.output_shape == (2, 2, 1)

    def test_pool_larger_than_input_rejected(self):
        with pytest.raises(ShapeError):
            built(MaxPool2D(4), (3, 3, 1))

    def test_monotone(self, rng):
        """Pool output of x+c equals pool(x)+c."""
        layer = built(MaxPool2D(2), (4, 4, 2))
        x = rng.standard_normal((2, 4, 4, 2)).astype(np.float32)
        np.testing.assert_allclose(
            layer.forward(x + 1.0), layer.forward(x) + 1.0, rtol=1e-6
        )


class TestFlatten:
    def test_shape(self, rng):
        layer = built(Flatten(), (4, 4, 3))
        out = layer.forward(rng.standard_normal((2, 4, 4, 3)).astype(np.float32))
        assert out.shape == (2, 48)

    def test_is_view_roundtrip(self, rng):
        layer = built(Flatten(), (2, 3, 1))
        x = rng.standard_normal((5, 2, 3, 1)).astype(np.float32)
        back = layer.backward(layer.forward(x))
        np.testing.assert_array_equal(back, x)
