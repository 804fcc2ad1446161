"""Property-based tests for the nn substrate (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn.activations import get_activation, softmax
from repro.nn.builders import FFNNSpec, build_model
from repro.nn.flops import model_cost
from repro.nn.layers import Dense, MaxPool2D

finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False,
    width=32,
)


def batches(shape, min_n=1, max_n=6):
    return st.integers(min_n, max_n).flatmap(
        lambda n: arrays(np.float32, (n, *shape), elements=finite_floats)
    )


class TestActivations:
    @given(z=arrays(np.float64, (16,), elements=finite_floats))
    def test_relu_idempotent(self, z):
        relu = get_activation("relu")
        np.testing.assert_array_equal(relu(relu(z)), relu(z))

    @given(z=arrays(np.float64, (16,), elements=finite_floats))
    def test_relu_nonnegative(self, z):
        assert (get_activation("relu")(z) >= 0).all()

    @given(z=arrays(np.float64, (4, 5), elements=finite_floats))
    def test_softmax_is_distribution(self, z):
        p = softmax(z)
        assert (p >= 0).all()
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    @given(
        z=arrays(np.float64, (3, 4), elements=finite_floats),
        shift=st.floats(min_value=-50, max_value=50, allow_nan=False),
    )
    def test_softmax_shift_invariant(self, z, shift):
        np.testing.assert_allclose(softmax(z + shift), softmax(z), atol=1e-9)

    @given(
        z=arrays(
            np.float64, (4, 5),
            elements=st.floats(
                min_value=-1e8, max_value=1e8,
                allow_nan=False, allow_infinity=False,
            ),
        )
    )
    def test_softmax_survives_large_magnitude_logits(self, z):
        """Huge logits must not overflow: still a finite distribution."""
        p = softmax(z)
        assert np.isfinite(p).all()
        assert (p >= 0).all()
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    @given(z=arrays(np.float64, (32,), elements=finite_floats))
    def test_sigmoid_monotone(self, z):
        s = get_activation("sigmoid")
        zs = np.sort(z)
        out = s(zs)
        assert (np.diff(out) >= -1e-12).all()


class TestLayers:
    @settings(deadline=None)
    @given(x=batches((7,)), scale=st.floats(0.1, 10.0))
    def test_linear_dense_is_homogeneous(self, x, scale):
        """Dense with linear activation and zero bias: f(a x) = a f(x)."""
        layer = Dense(4, "linear")
        layer.build((7,))
        layer.init_params(np.random.default_rng(0))
        layer.b[...] = 0.0
        np.testing.assert_allclose(
            layer.forward(x * np.float32(scale)),
            layer.forward(x) * np.float32(scale),
            rtol=1e-3, atol=1e-3,
        )

    @settings(deadline=None)
    @given(x=batches((6, 6, 2)))
    def test_maxpool_bounded_by_input(self, x):
        layer = MaxPool2D(2)
        layer.build((6, 6, 2))
        out = layer.forward(x)
        assert out.max() <= x.max() + 1e-7
        assert out.min() >= x.min() - 1e-7

    @settings(deadline=None)
    @given(x=batches((6, 6, 2)))
    def test_maxpool_permutation_of_batch_commutes(self, x):
        layer = MaxPool2D(2)
        layer.build((6, 6, 2))
        perm = np.random.default_rng(1).permutation(x.shape[0])
        np.testing.assert_array_equal(layer.forward(x)[perm], layer.forward(x[perm]))


class TestModels:
    @settings(deadline=None, max_examples=20)
    @given(
        hidden=st.lists(st.integers(1, 32), min_size=1, max_size=4).map(tuple),
        n_classes=st.integers(2, 6),
        n_features=st.integers(1, 16),
    )
    def test_any_ffnn_spec_builds_and_runs(self, hidden, n_classes, n_features):
        spec = FFNNSpec(
            name="prop", input_shape=(n_features,), n_classes=n_classes,
            hidden_layers=hidden,
        )
        model = build_model(spec, rng=0)
        x = np.zeros((3, n_features), dtype=np.float32)
        assert model.forward(x).shape == (3, n_classes)
        # Param count consistency with the analytic cost model.
        assert model.n_params * 4 == int(model_cost(spec).param_bytes)

    @settings(deadline=None, max_examples=15)
    @given(
        hidden=st.lists(st.integers(1, 64), min_size=1, max_size=5).map(tuple),
    )
    def test_flops_positive_and_monotone_in_width(self, hidden):
        spec = FFNNSpec(name="p", input_shape=(8,), n_classes=3, hidden_layers=hidden)
        wider = FFNNSpec(
            name="q", input_shape=(8,), n_classes=3,
            hidden_layers=tuple(h + 1 for h in hidden),
        )
        assert 0 < model_cost(spec).flops_per_sample < model_cost(wider).flops_per_sample
