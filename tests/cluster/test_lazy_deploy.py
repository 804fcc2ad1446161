"""A virtual fleet never draws weights: deploy reads shapes, not arrays.

Every launch in a trace replay without host samples is virtual (the cost
model times it; no forward pass runs), and deploy's dGPU upload cost
reads only the models' parameter byte counts.  So building a fleet and
replaying a trace through it must call no weight initializer at all,
while the upload cost stays what the eagerly drawn weights' bytes give.
"""

import pytest

from repro.cluster import ClusterRouter
from repro.nn import initializers
from repro.nn.builders import build_model
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
