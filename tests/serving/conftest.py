"""Serving-layer fixtures: a small trained scheduler, fresh per test.

The predictor is trained once per session on a reduced two-model grid;
schedulers (whose command-queue clocks are mutable state) are rebuilt per
test so virtual time always starts at zero.
"""

from __future__ import annotations

import pytest

from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.ocl.context import Context
from repro.ocl.platform import get_all_devices
from repro.sched.dispatcher import Dispatcher
from repro.sched.scheduler import OnlineScheduler
from repro.serving.frontend import ServingResponse
from repro.workloads.requests import InferenceRequest

SERVING_SPECS = {s.name: s for s in (SIMPLE, MNIST_SMALL)}


def queued(request: InferenceRequest, seq: int, enqueued_s=None) -> ServingResponse:
    """A handle stamped the way a frontend registers it: ``enqueued_s``
    (the arrival by default) and its submission ``seq``."""
    response = ServingResponse(request)
    response.enqueued_s = request.arrival_s if enqueued_s is None else enqueued_s
    response.seq = seq
    return response


def build_scheduler(predictors) -> OnlineScheduler:
    """A fresh scheduler over fresh devices (zeroed virtual clocks)."""
    ctx = Context(get_all_devices())
    dispatcher = Dispatcher(ctx)
    for spec in SERVING_SPECS.values():
        dispatcher.deploy_fresh(spec, rng=0)
    return OnlineScheduler(ctx, dispatcher, predictors)


@pytest.fixture()
def scheduler(serving_predictors) -> OnlineScheduler:
    return build_scheduler(serving_predictors)
