"""A virtual fleet never draws weights: deploy reads shapes, not arrays.

Every launch in a trace replay without host samples is virtual (the cost
model times it; no forward pass runs), and deploy's dGPU upload cost
reads only the models' parameter byte counts.  So building a fleet and
replaying a trace through it must call no weight initializer at all,
while the upload cost stays what the eagerly drawn weights' bytes give.
"""

import numpy as np
import pytest

from repro.cluster import ClusterRouter
from repro.errors import BuildError, ShapeError
from repro.nn import initializers
from repro.nn.builders import build_model
from repro.nn.zoo import MNIST_CNN
from repro.ocl.context import Context
from repro.ocl.platform import get_all_devices
from repro.sched.dispatcher import Dispatcher
from repro.workloads.requests import make_trace
from repro.workloads.streams import ConstantStream

from tests.cluster.conftest import build_fleet
from tests.serving.conftest import SERVING_SPECS


@pytest.fixture()
def init_calls(monkeypatch):
    """Count every call through the initializer registry."""
    calls = []
    for name, fn in list(initializers._REGISTRY.items()):
        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setitem(initializers._REGISTRY, name, counted)
    return calls


def test_counter_sees_an_eager_build(init_calls):
    model = build_model(SERVING_SPECS["simple"], rng=0)
    assert init_calls == []
    model.get_weights()
    assert init_calls == ["he_normal"] * len(model.layers)


def test_virtual_fleet_build_and_replay_draw_no_weights(
    serving_predictors, init_calls
):
    fleet = build_fleet(serving_predictors)
    trace = make_trace(
        ConstantStream(horizon_s=0.5, interval_s=0.0025, batch=32),
        list(SERVING_SPECS.values()),
        rng=3,
    )
    result = ClusterRouter(fleet, balancer="least-ect", rng=1).serve_trace(trace)
    assert result.telemetry.snapshot()["served"] > 0
    assert init_calls == []
    for node in fleet:
        dispatcher = node.frontend.backlog.scheduler.dispatcher
        for spec in SERVING_SPECS.values():
            eager = build_model(spec, rng=0)
            nbytes = sum(int(p.nbytes) for _, p in eager.params())
            for device in dispatcher.context.devices:
                assert dispatcher.upload_seconds(device.name, spec.name) == (
                    device.cost_model.transfer.transfer_time(nbytes, pinned=True)
                )


def test_load_weights_into_a_lazy_model_draws_nothing(init_calls):
    """A full weight set is checked against the layer shapes and installed
    as given: the seeded draw it would replace never happens."""
    donor = build_model(MNIST_CNN, rng=4).get_weights()
    init_calls.clear()
    dispatcher = Dispatcher(Context(get_all_devices()))
    model = dispatcher.build_model(MNIST_CNN, rng=0)

    bad = dict(donor, **{"0.w": donor["0.w"][:-1]})
    with pytest.raises(ShapeError, match="0.w"):
        dispatcher.load_weights(MNIST_CNN, bad)
    dispatcher.load_weights(MNIST_CNN, donor)
    expected = {name: array.copy() for name, array in donor.items()}
    for array in donor.values():
        array[...] = 0.0      # the model holds copies, not the caller's arrays
    weights = model.get_weights()
    model.forward(np.zeros((1, 28, 28, 1), dtype=np.float32))

    assert init_calls == []
    assert weights.keys() == expected.keys()
    for name, array in expected.items():
        np.testing.assert_array_equal(weights[name], array)


def test_rejected_weights_leave_a_lazy_model_undrawn():
    model = build_model(MNIST_CNN, rng=0)
    weights = build_model(MNIST_CNN, rng=0).get_weights()
    extra = dict(weights, bogus=np.zeros(1, dtype=np.float32))
    with pytest.raises(BuildError, match="unexpected=\\['bogus'\\]"):
        model.set_weights(extra)
    assert all(getattr(layer, "w", None) is None for layer in model.layers)
    for name, array in model.get_weights().items():
        np.testing.assert_array_equal(array, weights[name])
