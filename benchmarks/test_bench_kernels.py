"""Bench: raw inference-kernel performance (real numpy compute).

Not a paper artifact — these time *our* substrate's forward passes, the
compute that launches given a host batch actually run.  Useful for
tracking regressions in the vectorized layer implementations.
"""

import numpy as np
import pytest

from repro.nn.builders import build_model
from repro.nn.zoo import CIFAR10, MNIST_CNN, MNIST_SMALL, SIMPLE


@pytest.mark.parametrize(
    "spec,batch",
    [(SIMPLE, 4096), (MNIST_SMALL, 256), (MNIST_CNN, 64), (CIFAR10, 16)],
    ids=lambda v: getattr(v, "name", v),
)
def test_bench_forward(benchmark, spec, batch):
    model = build_model(spec, rng=0)
    x = np.random.default_rng(1).standard_normal(
        (batch, *spec.input_shape)
    ).astype(np.float32)
    out = benchmark(model.forward, x)
    assert out.shape == (batch, spec.n_classes)


def test_bench_training_epoch(benchmark):
    """One SGD epoch on the Simple model (the Fig. 2 offline phase)."""
    from repro.nn.datasets import make_iris
    from repro.nn.train import TrainConfig, train_model

    ds = make_iris(rng=0)

    def one_epoch():
        model = build_model(SIMPLE, rng=0)
        return train_model(
            model, ds.x_train, ds.y_train, TrainConfig(epochs=1), rng=1
        )

    result = benchmark(one_epoch)
    assert np.isfinite(result.final_loss)


def test_bench_scheduler_decision(benchmark, session):
    """Per-request decision cost of the trained RF scheduler (Table II's
    'classification time' column measures exactly this path)."""
    from repro.sched.dataset import generate_dataset
    from repro.sched.predictor import DevicePredictor

    predictor = DevicePredictor("throughput").fit(
        generate_dataset("throughput", session=session)
    )
    device = benchmark(predictor.predict_device, MNIST_SMALL, 1024, "warm")
    assert device in ("cpu", "dgpu", "igpu")


def test_bench_characterization_point(benchmark, session):
    """Cost of one virtual-clock measurement (the sweep building block)."""
    m = benchmark(session.measure, CIFAR10, "dgpu", 1 << 14, "idle")
    assert m.joules > 0
