"""Shape-first models: weights drawn on first read, bit-identical to eager.

``Sequential.build`` with an int seed or None propagates shapes only and
draws the parameters from that seed the first time they are read; with a
shared ``Generator`` it draws at build time so the generator advances as
before.  The pins below were taken from the eager build (every layer
drawn inside ``build``), so any change to the draw order or the
generator breaks them.
"""

import hashlib

import numpy as np
import pytest

from repro.nn.builders import build_model
from repro.nn.zoo import ALL_SPECS, MNIST_CNN, SIMPLE

#: SHA-256 prefix over (name, bytes) of every weight, seed 0 then seed None.
EAGER_WEIGHTS = {
    "simple": "9edfeaffa4baed23",
    "mnist-small": "4477fcce04390356",
    "mnist-deep": "26724c8a4922d22f",
    "mnist-cnn": "78667fa3ce3b07fb",
    "cifar-10": "5db9a9cd891ad34a",
    "aug-ffnn-depth1": "3e87559aebbe505a",
    "aug-ffnn-depth3": "2900ca76e0e5ad3c",
    "aug-ffnn-depth8": "c0e3a736372af6f2",
    "aug-ffnn-depth12": "5ae9d6af7df1a46d",
    "aug-ffnn-tiny": "bc604c786915afb3",
    "aug-ffnn-narrow": "5a00cb958779a3c0",
    "aug-ffnn-wide": "0a1184eb2690b704",
    "aug-ffnn-huge": "b1d34db2f96a67fe",
    "aug-cnn-blocks1": "a5e56a68367bb4bd",
    "aug-cnn-blocks2": "80ed35e4149ed990",
    "aug-cnn-blocks4": "eeef15fc9b3037da",
    "aug-cnn-convs2": "d9e3cd2e1d22c934",
    "aug-cnn-convs3": "3d3c4677d997039e",
    "aug-cnn-filter5": "f15440bfd56ea070",
    "aug-cnn-filter7": "0cbf20f2716e134e",
    "aug-cnn-pool4": "d34595db45ba85de",
    "unseen-ffnn-mid": "8c7d6831f27d233a",
    "unseen-ffnn-deep": "6dbc2dcff791ef5a",
    "unseen-cnn-mixed": "b7f43726dfcea947",
    "unseen-cnn-heavy": "84ae3110f27b56a6",
}

#: ``integers(1 << 62)`` of ``default_rng(3)`` after it built every spec.
EAGER_NEXT_DRAW = 3344054098795897139


def undrawn(model) -> bool:
    return all(getattr(layer, "w", None) is None for layer in model.layers)


def test_pins_cover_every_zoo_spec():
    assert set(EAGER_WEIGHTS) == {spec.name for spec in ALL_SPECS}


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_lazy_weights_match_the_eager_build(spec):
    digest = hashlib.sha256()
    for seed in (0, None):
        model = build_model(spec, rng=seed)
        assert undrawn(model)
        weights = model.get_weights()
        assert not undrawn(model)
        assert model.param_nbytes == sum(w.nbytes for w in weights.values())
        assert model.n_params == sum(w.size for w in weights.values())
        for name, w in weights.items():
            digest.update(name.encode())
            digest.update(w.tobytes())
    assert digest.hexdigest()[:16] == EAGER_WEIGHTS[spec.name]


def test_shared_generator_draws_at_build_in_order():
    gen = np.random.default_rng(3)
    for spec in ALL_SPECS:
        assert not undrawn(build_model(spec, rng=gen))
    assert int(gen.integers(1 << 62)) == EAGER_NEXT_DRAW


def test_int_seed_and_its_generator_agree():
    lazy = build_model(MNIST_CNN, rng=7)
    eager = build_model(MNIST_CNN, rng=np.random.default_rng(7))
    for (name, a), (_, b) in zip(lazy.params(), eager.params()):
        np.testing.assert_array_equal(a, b, err_msg=name)


X = np.ones((2, 4), dtype=np.float32)

#: Every first read of the parameters, as ``(model, tmp_path) -> None``.
READS = {
    "forward": lambda m, tmp: m.forward(X),
    "forward_train": lambda m, tmp: m.forward_train(X),
    "params": lambda m, tmp: list(m.params()),
    "get_weights": lambda m, tmp: m.get_weights(),
    "set_weights": lambda m, tmp: m.set_weights(
        build_model(SIMPLE, rng=5).get_weights()
    ),
    "save_weights": lambda m, tmp: m.save_weights(tmp / "w.npz"),
}


@pytest.mark.parametrize("read", sorted(READS))
def test_every_first_read_draws_once(read, tmp_path):
    model = build_model(SIMPLE, rng=0)
    assert undrawn(model) and model.n_params > 0
    READS[read](model, tmp_path)
    assert not undrawn(model)
    drawn = [layer.w for layer in model.layers]
    model.get_weights()
    assert all(layer.w is w for layer, w in zip(model.layers, drawn))
    if read != "set_weights":
        eager = build_model(SIMPLE, rng=np.random.default_rng(0))
        for a, b in zip(drawn, (layer.w for layer in eager.layers)):
            np.testing.assert_array_equal(a, b)
