"""Every sink equals a recount: a tenant's ledger is a full ServingTelemetry.

A standalone frontend with two tenants and one unowned model, a
degrading SLO on one tenant's model, a shedding one on the other's and
a transient-error profile over the whole run.  Each tenant's ledger must
equal a recount over the handles of its models — served, shed, degraded,
failed, violations, latency samples, dispatched samples, peak depths —
and the tenants plus the unowned model must add up to the frontend's
own ledger.
"""

from __future__ import annotations

import pytest

from repro.faults import ErrorProfile
from repro.nn.zoo import MNIST_DEEP, MNIST_SMALL, SIMPLE
from repro.ocl.context import Context
from repro.ocl.platform import get_all_devices
from repro.partition import TenantSet, TenantSpec
from repro.sched.dispatcher import Dispatcher
from repro.sched.scheduler import OnlineScheduler
from repro.serving import ServingFrontend, SLOConfig
from repro.telemetry.serving import ServingTelemetry

SPECS = {s.name: s for s in (SIMPLE, MNIST_SMALL, MNIST_DEEP)}
TENANTS = TenantSet([
    TenantSpec("rt", models=(SIMPLE.name,), kind="latency", slo_s=0.01),
    TenantSpec("bulk", models=(MNIST_SMALL.name,), kind="batch"),
])
SLO = {
    SIMPLE.name: SLOConfig(
        deadline_s=0.004, max_queue_depth=2, max_batch=256, max_wait_s=0.002,
        degrade=True,
    ),
    MNIST_SMALL.name: SLOConfig(
        deadline_s=0.08, max_queue_depth=3, max_batch=2048, max_wait_s=0.003,
    ),
}


def counters(sink: ServingTelemetry) -> dict:
    return {
        "served": sink.n_served,
        "shed": sink.n_shed,
        "degraded": sink.n_degraded,
        "failed": sink.n_failed,
        "violations": sink.n_violations,
        "latencies": sorted(sink.latency.samples),
        "dispatched": sink.batch_sizes._total,
    }


def recount(handles) -> dict:
    """The same numbers, from the resolved handles alone."""
    served = [r for r in handles if r.served]
    failed = [r for r in handles if r.shed_reason == "inference_error"]
    return {
        "served": len(served),
        "shed": sum(r.status == "shed" for r in handles),
        "degraded": sum(r.degraded for r in handles),
        "failed": len(failed),
        "violations": sum(r.deadline_met is False for r in served),
        "latencies": sorted(r.latency_s for r in served),
        # Coalesced launches count their samples at dispatch; a degraded
        # request runs alone, outside the batch histogram.
        "dispatched": sum(
            r.batch for r in served + failed if not r.degraded
        ),
    }


def add(a: dict, b: dict) -> dict:
    return {key: sorted(a[key] + b[key]) if key == "latencies" else a[key] + b[key]
            for key in a}


@pytest.fixture()
def served_frontend(serving_predictors):
    ctx = Context(get_all_devices())
    dispatcher = Dispatcher(ctx)
    for spec in SPECS.values():
        dispatcher.deploy_fresh(spec, rng=0)
    fe = ServingFrontend(
        OnlineScheduler(ctx, dispatcher, serving_predictors), SPECS,
        slo=SLO, default_slo=SLOConfig(deadline_s=0.03, max_batch=512),
        tenants=TENANTS,
    )
    fe.fault_profile = ErrorProfile(0.15, seed=7, windows=[(0.0, 10.0)])
    models = (SIMPLE.name, MNIST_SMALL.name, MNIST_DEEP.name)
    responses = [
        fe.submit(models[i % 3], 8 + 61 * (i % 7), arrival_s=0.0004 * (i // 2))
        for i in range(240)
    ]
    fe.run()
    assert fe.n_pending == 0
    return fe, responses


def test_each_tenant_ledger_equals_a_recount(served_frontend):
    fe, responses = served_frontend
    ledgers = fe.telemetry.tenants
    assert set(ledgers) == {"rt", "bulk"}
    for tenant in TENANTS:
        mine = [r for r in responses if r.request.model in tenant.models]
        ledger = ledgers[tenant.name]
        assert counters(ledger) == recount(mine), tenant.name
        assert set(ledger.peak_depth) <= set(tenant.models)
        for model, depth in ledger.peak_depth.items():
            assert depth == fe.telemetry.peak_depth[model]
    # The scenario reaches every deposit kind.
    rt, bulk = counters(ledgers["rt"]), counters(ledgers["bulk"])
    assert rt["degraded"] and rt["violations"] and bulk["shed"]
    assert rt["failed"] and bulk["failed"]


def test_tenants_plus_unowned_models_add_up_to_the_frontend(served_frontend):
    fe, responses = served_frontend
    unowned = [r for r in responses if TENANTS.tenant_for(r.request.model) is None]
    assert unowned
    tenants = ServingTelemetry.merge(fe.telemetry.tenants.values())
    assert counters(fe.telemetry) == add(counters(tenants), recount(unowned))
    assert counters(fe.telemetry) == recount(responses)
    snap = fe.stats()["tenants"]
    for name, ledger in fe.telemetry.tenants.items():
        assert snap[name] == ledger.snapshot()
