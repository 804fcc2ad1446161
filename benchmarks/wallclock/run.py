"""Wall-clock benchmark harness for the hot paths (``make bench-wallclock``).

Times the four paths the perf pass optimized — forest inference
(recursive vs flattened), the characterization sweep (cold vs cached), a
serving-frontend overload flood, and a 4-node cluster flood — and emits
``BENCH_hotpaths.json`` so future changes have a perf trajectory to
regress against (``check.py`` enforces it).  Optional sections ride along: ``partition``
measures multi-tenant isolation on a 4-way-split dGPU, ``million``
floods a 4-node fleet with a production-shaped million-request trace,
``sharded`` replays that same trace across 4 worker processes under
the conservative virtual-time protocol (``repro.shard``), and ``drift``
runs a thermal-throttle chaos campaign where a drift-aware online
predictor must recover the goodput a frozen one loses; ``check.py``
gates each section's claims whenever it is present.

Run from the repo root with ``PYTHONPATH=src``; ``--tiny`` shrinks every
workload for CI smoke runs (same schema, different ``mode`` field, so the
regression check only ever compares like against like).  The script puts
the repo root on ``sys.path`` itself: the ``forest`` section times the
recursive reference walk from ``tests/placement_oracle.py``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import platform
import pstats
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

SCHEMA_VERSION = 1


def _best_of(fn, repeats: int) -> float:
    """Min wall-clock seconds over ``repeats`` calls (noise floor)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_forest(tiny: bool) -> dict:
    """Recursive vs flattened 50-tree forest ``predict_proba``."""
    from repro.ml.forest import RandomForestClassifier
    from repro.sched.dataset import generate_dataset
    from tests.placement_oracle import forest_proba_recursive

    dataset = generate_dataset("throughput")
    forest = RandomForestClassifier(
        n_estimators=50, criterion="entropy", max_depth=10,
        min_samples_leaf=1, random_state=7,
    ).fit(dataset.x, dataset.y)
    flat = forest.arena_

    batches = (16, 64) if tiny else (64, 256, 1024)
    repeats = 2 if tiny else 5
    out: dict = {
        "n_trees": 50,
        "max_depth": int(flat.max_depth),
        "n_nodes": int(flat.n_nodes),
        "equivalent": True,
        "batches": {},
    }
    for batch in batches:
        x = np.resize(dataset.x, (batch, dataset.x.shape[1]))
        if not np.array_equal(
            forest.predict_proba(x), forest_proba_recursive(forest, x)
        ):
            out["equivalent"] = False
        recursive_s = _best_of(lambda: forest_proba_recursive(forest, x), repeats)
        flat_s = _best_of(lambda: forest.predict_proba(x), repeats)
        out["batches"][str(batch)] = {
            "recursive_s": recursive_s,
            "flat_s": flat_s,
            "speedup": recursive_s / flat_s,
        }
    return out


def bench_sweep(tiny: bool) -> dict:
    """Characterization sweep: cold vs measurement-cache warm."""
    from repro.nn.zoo import MNIST_SMALL, SIMPLE
    from repro.sched.dataset import generate_dataset
    from repro.sched.persistence import MeasurementCache
    from repro.telemetry.session import MeasurementSession

    kwargs: dict = {}
    if tiny:
        kwargs = {"specs": [SIMPLE, MNIST_SMALL], "batches": (1, 64, 1024)}

    cache = MeasurementCache()
    sess = MeasurementSession(cache=cache)
    t0 = time.perf_counter()
    cold = generate_dataset("throughput", session=sess, **kwargs)
    cold_s = time.perf_counter() - t0

    warm_labels = [None]

    def warm_run():
        warm_labels[0] = generate_dataset("throughput", session=sess, **kwargs)

    warm_s = _best_of(warm_run, 2 if tiny else 3)
    warm = warm_labels[0]
    return {
        "rows": int(cold.n_samples),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s,
        "labels_identical": bool(
            cold.y.tobytes() == warm.y.tobytes()
            and cold.x.tobytes() == warm.x.tobytes()
        ),
        "cache": cache.stats(),
    }


def _trained_predictors():
    from repro.nn.zoo import MNIST_SMALL, SIMPLE
    from repro.sched.dataset import generate_dataset
    from repro.sched.policies import Policy
    from repro.sched.predictor import DevicePredictor

    return {
        Policy.THROUGHPUT: DevicePredictor("throughput").fit(
            generate_dataset(
                "throughput",
                specs=[SIMPLE, MNIST_SMALL],
                batches=(1, 64, 1024, 16384, 262144),
            )
        )
    }


def _timed_trace(serve, trace, profile: "str | None"):
    """Time one serve_trace call, optionally under cProfile.

    Profiling adds tracing overhead to the wall time, so profiled runs are
    for hotspot attribution (``make profile-cluster``), not for the floors.
    """
    t0 = time.perf_counter()
    if not profile:
        return serve(trace), time.perf_counter() - t0
    profiler = cProfile.Profile()
    result = profiler.runcall(serve, trace)
    wall_s = time.perf_counter() - t0
    profiler.dump_stats(profile)
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
    print(f"raw stats dumped to {profile}")
    return result, wall_s


def bench_serving(tiny: bool, profile: "str | None" = None) -> dict:
    """One SLO-aware frontend riding out an overload flood.

    ``serve_trace`` runs through the frontend's one-node ingress router,
    so this times that router's per-arrival placement step as well.
    """
    from repro.nn.zoo import MNIST_SMALL, SIMPLE
    from repro.ocl.context import Context
    from repro.ocl.platform import get_all_devices
    from repro.sched.dispatcher import Dispatcher
    from repro.sched.scheduler import OnlineScheduler
    from repro.serving import ServingFrontend, SLOConfig
    from repro.workloads.requests import make_trace
    from repro.workloads.streams import OverloadStream

    specs = {s.name: s for s in (SIMPLE, MNIST_SMALL)}
    predictors = _trained_predictors()
    slo = SLOConfig(
        deadline_s=0.3, max_queue_depth=64, max_batch=4096, max_wait_s=0.005
    )
    stream = OverloadStream(
        horizon_s=2.0 if tiny else 4.0,
        slo_s=0.3,
        normal_rate_hz=20,
        overload_rate_hz=300 if tiny else 3000,
        overload_start_s=0.5 if tiny else 1.0,
        overload_end_s=1.0 if tiny else 2.0,
        normal_batch=64,
        overload_batch=64,
    )
    trace = make_trace(stream, [MNIST_SMALL], rng=7)

    ctx = Context(get_all_devices())
    dispatcher = Dispatcher(ctx)
    for spec in specs.values():
        dispatcher.deploy_fresh(spec, rng=0)
    frontend = ServingFrontend(
        OnlineScheduler(ctx, dispatcher, predictors), specs, default_slo=slo
    )
    result, wall_s = _timed_trace(frontend.serve_trace, trace, profile)
    return {
        "requests": len(trace),
        "wall_s": wall_s,
        "requests_per_wall_s": len(trace) / wall_s,
        "p99_ms": result.latency_percentile(99.0) * 1e3,
        "shed_rate": result.shed_rate,
        "decision_cache_hit_rate": frontend.backlog.cache_stats()["hit_rate"],
    }


def bench_cluster(tiny: bool, profile: "str | None" = None) -> dict:
    """A 4-node heterogeneous fleet (least-ECT) taking the flood."""
    from repro.cluster import ClusterRouter, NodeSpec, make_fleet
    from repro.nn.zoo import MNIST_SMALL, SIMPLE
    from repro.serving import SLOConfig
    from repro.workloads.requests import make_trace
    from repro.workloads.streams import OverloadStream

    specs = {s.name: s for s in (SIMPLE, MNIST_SMALL)}
    predictors = _trained_predictors()
    slo = SLOConfig(
        deadline_s=0.3, max_queue_depth=64, max_batch=4096, max_wait_s=0.005
    )
    fleet_specs = [
        NodeSpec("node-a"),
        NodeSpec("node-b"),
        NodeSpec("node-c", device_classes=("cpu",)),
        NodeSpec("node-d", device_classes=("cpu",)),
    ]
    stream = OverloadStream(
        horizon_s=2.0 if tiny else 4.0,
        slo_s=0.3,
        normal_rate_hz=20,
        overload_rate_hz=600 if tiny else 6000,
        overload_start_s=0.5 if tiny else 1.0,
        overload_end_s=1.0 if tiny else 2.0,
        normal_batch=64,
        overload_batch=64,
    )
    trace = make_trace(stream, [MNIST_SMALL], rng=7)

    fleet = make_fleet(fleet_specs, predictors, specs, default_slo=slo)
    router = ClusterRouter(fleet, balancer="least-ect", rng=123)
    result, wall_s = _timed_trace(router.serve_trace, trace, profile)
    return {
        "nodes": len(fleet_specs),
        "requests": len(trace),
        "wall_s": wall_s,
        "requests_per_wall_s": len(trace) / wall_s,
        "p99_ms": result.latency_percentile(99.0) * 1e3,
        "shed_rate": result.shed_rate,
        "decision_cache_hit_rate": router.decision_cache_stats()["hit_rate"],
    }


def bench_partition(tiny: bool) -> dict:
    """Tenant isolation: a latency tenant's p99 under a batch-tenant flood.

    Two runs of the same two-tenant workload on one node: *shared* keeps
    the dGPU whole, *partitioned* splits it 4-way with the latency tenant
    pinned to its own partition (and the batch tenant to the rest).  The
    flood blows the latency tenant's SLO in the shared run and must not in
    the partitioned one.  The partitioned run is then replayed with the
    identical script and compared digit for digit.
    """
    from repro.hw.specs import DGPU_GTX_1080TI
    from repro.nn.zoo import MNIST_SMALL, SIMPLE
    from repro.ocl.context import Context
    from repro.ocl.platform import get_all_devices
    from repro.partition import (
        PartitionableDeviceSpec,
        PartitionedAccelerator,
        TenantSet,
        TenantSpec,
    )
    from repro.sched.dispatcher import Dispatcher
    from repro.sched.scheduler import OnlineScheduler
    from repro.serving import ServingFrontend, SLOConfig

    slo_s = 0.05
    specs = {s.name: s for s in (SIMPLE, MNIST_SMALL)}
    predictors = _trained_predictors()
    n_latency = 150 if tiny else 600
    n_bulk = 40 if tiny else 160

    def run_once(partitioned: bool):
        tenants = TenantSet([
            TenantSpec("rt", models=(SIMPLE.name,), kind="latency", slo_s=slo_s),
            TenantSpec("bulk", models=(MNIST_SMALL.name,), kind="batch"),
        ])
        # Best-effort SLO: nothing sheds, so the tail is pure queueing delay.
        slo = SLOConfig(
            deadline_s=None, max_queue_depth=None,
            max_batch=4096, max_wait_s=0.001,
        )
        ctx = Context(get_all_devices())
        dispatcher = Dispatcher(ctx)
        for spec in specs.values():
            dispatcher.deploy_fresh(spec, rng=0)
        frontend = ServingFrontend(
            OnlineScheduler(ctx, dispatcher, predictors),
            specs, default_slo=slo, tenants=tenants,
        )
        if partitioned:
            pspec = PartitionableDeviceSpec(DGPU_GTX_1080TI)
            PartitionedAccelerator(frontend, pspec, start_mode=4)
        responses = [
            frontend.submit(SIMPLE.name, 64, arrival_s=i * 0.002)
            for i in range(n_latency)
        ] + [
            frontend.submit(MNIST_SMALL.name, 262144, arrival_s=i * 0.005)
            for i in range(n_bulk)
        ]
        frontend.run()
        assert frontend.n_pending == 0
        outcome = [
            (r.status, r.device_name, r.end_s, r.batch_size) for r in responses
        ]
        return frontend.stats()["tenants"]["rt"]["p99_ms"], outcome

    t0 = time.perf_counter()
    shared_p99_ms, _ = run_once(partitioned=False)
    part_p99_ms, outcome = run_once(partitioned=True)
    replay_p99_ms, replay = run_once(partitioned=True)
    wall_s = time.perf_counter() - t0

    slo_ms = slo_s * 1e3
    return {
        "requests": n_latency + n_bulk,
        "wall_s": wall_s,
        "latency_slo_ms": slo_ms,
        "shared_p99_ms": shared_p99_ms,
        "partitioned_p99_ms": part_p99_ms,
        "isolation_holds": bool(part_p99_ms <= slo_ms < shared_p99_ms),
        "deterministic": bool(
            outcome == replay and part_p99_ms == replay_p99_ms
        ),
    }


def _million_trace(tiny: bool):
    """Seeded production-shaped mixed trace (~1M requests, 20k tiny).

    Three concurrent sources over both zoo models: an MMPP burst process
    (calm/burst phases), a flash crowd (baseline -> spike -> exponential
    decay) and heavy-tailed user sessions — interleaved by MixedTrace and
    trimmed to an exact request count so the digest below is over a fixed
    population.
    """
    from repro.nn.zoo import MNIST_SMALL, SIMPLE
    from repro.workloads import (
        FlashCrowdStream,
        MMPPStream,
        MixedTrace,
        SessionStream,
        TraceComponent,
    )

    # Fixed per-component batch sizes (sigma 0): production frontends
    # bucket batch sizes before dispatch, and a bounded (model, batch)
    # cell space is what lets the decision cache and the router's
    # per-run probe memo absorb a million-request flood.
    if tiny:
        n_requests = 20_000
        horizon = 4.0
        mmpp = MMPPStream(
            horizon_s=horizon, slo_s=0.3,
            rates_hz=(3_000.0, 12_000.0), mean_sojourn_s=(1.0, 0.3),
            batch_sigma=0.0,
        )
        flash = FlashCrowdStream(
            horizon_s=horizon, slo_s=0.2,
            base_rate_hz=800.0, peak_rate_hz=8_000.0,
            spike_at_s=1.5, ramp_s=0.3, decay_tau_s=0.8,
            batch_sigma=0.0,
        )
        sessions = SessionStream(horizon_s=horizon, slo_s=0.4,
                                 session_rate_hz=300.0, batch_sigma=0.0)
    else:
        n_requests = 1_000_000
        horizon = 24.0
        mmpp = MMPPStream(
            horizon_s=horizon, slo_s=0.3,
            rates_hz=(24_000.0, 96_000.0), mean_sojourn_s=(2.0, 0.5),
            batch_sigma=0.0,
        )
        flash = FlashCrowdStream(
            horizon_s=horizon, slo_s=0.2,
            base_rate_hz=6_000.0, peak_rate_hz=60_000.0,
            spike_at_s=8.0, ramp_s=0.5, decay_tau_s=3.0,
            batch_sigma=0.0,
        )
        sessions = SessionStream(horizon_s=horizon, slo_s=0.4,
                                 session_rate_hz=2_000.0, batch_sigma=0.0)

    mix = MixedTrace(components=(
        TraceComponent(process=mmpp, models=(MNIST_SMALL.name, SIMPLE.name),
                       name="mmpp"),
        TraceComponent(process=flash, models=(SIMPLE.name,), name="flash"),
        TraceComponent(process=sessions, models=(MNIST_SMALL.name,),
                       name="sessions"),
    ))
    return mix.build(rng=20220530, n_requests=n_requests)


def _outcome_digest(responses) -> str:
    """SHA-256 over every response's resolved outcome, in trace order.

    Delegates to :mod:`repro.shard.digest` — the same canonical line
    format the sharded coordinator hashes its merged outcomes with, which
    is what lets the ``sharded`` section compare its digests against this
    section's single-process ones byte for byte.
    """
    from repro.shard import digest_responses

    return digest_responses(responses)


def bench_million(tiny: bool, profile: "str | None" = None) -> dict:
    """Million-request replay through ``serve_trace``.

    The production-shaped trace from :func:`_million_trace` floods the
    same 4-node fleet as the ``cluster`` section, replayed through the
    :class:`TraceCursor` and run-batched routing.  The whole replay runs
    twice on fresh fleets and must produce the same outcome digest —
    batching is an optimization, not a semantics change — and wall time
    is the best of the two runs (same noise floor as ``_best_of``).
    """
    from repro.cluster import ClusterRouter, NodeSpec, make_fleet
    from repro.nn.zoo import MNIST_SMALL, SIMPLE
    from repro.serving import SLOConfig

    specs = {s.name: s for s in (SIMPLE, MNIST_SMALL)}
    predictors = _trained_predictors()
    slo = SLOConfig(
        deadline_s=0.3, max_queue_depth=64, max_batch=4096, max_wait_s=0.005
    )
    fleet_specs = [
        NodeSpec("node-a"),
        NodeSpec("node-b"),
        NodeSpec("node-c", device_classes=("cpu",)),
        NodeSpec("node-d", device_classes=("cpu",)),
    ]
    trace = _million_trace(tiny)

    def run_once():
        fleet = make_fleet(fleet_specs, predictors, specs, default_slo=slo)
        router = ClusterRouter(fleet, balancer="least-ect", rng=123)
        result, wall_s = _timed_trace(router.serve_trace, trace, profile)
        return result, wall_s, _outcome_digest(result.responses), router

    result, wall_a, digest_a, router = run_once()
    _, wall_b, digest_b, _ = run_once()
    wall_s = min(wall_a, wall_b)
    return {
        "nodes": len(fleet_specs),
        "requests": len(trace),
        "trace_horizon_s": trace.horizon_s,
        "wall_s": wall_s,
        "requests_per_wall_s": len(trace) / wall_s,
        "p99_ms": result.latency_percentile(99.0) * 1e3,
        "shed_rate": result.shed_rate,
        "decision_cache_hit_rate": router.decision_cache_stats()["hit_rate"],
        "outcome_digest": digest_a,
        "deterministic": bool(digest_a == digest_b),
    }


def bench_sharded(tiny: bool, profile: "str | None" = None) -> dict:
    """Million-request replay sharded across 4 worker processes.

    The same production-shaped trace as ``million`` floods an 8-node
    fleet partitioned into 4 logical groups (each a full testbed node
    plus a CPU-only one), with the least-loaded front tier routing per
    conservative window.  Digests must agree across 1, 2 and 4 worker
    processes — the worker layout is an implementation detail, not a
    semantics change — and across repeated 4-worker runs; wall time is
    the best of the two 4-worker runs.
    """
    from repro.cluster import NodeSpec
    from repro.nn.zoo import MNIST_SMALL, SIMPLE
    from repro.serving import SLOConfig
    from repro.shard import ShardPlan, run_sharded

    specs = {s.name: s for s in (SIMPLE, MNIST_SMALL)}
    predictors = _trained_predictors()
    slo = SLOConfig(
        deadline_s=0.3, max_queue_depth=64, max_batch=4096, max_wait_s=0.005
    )
    groups = tuple(
        (
            NodeSpec(f"shard{g}-a"),
            NodeSpec(f"shard{g}-b", device_classes=("cpu",)),
        )
        for g in range(4)
    )
    trace = _million_trace(tiny)

    def run_once(n_workers: int):
        plan = ShardPlan(
            groups=groups, n_workers=n_workers, lookahead_s=0.25,
            front_tier="least-loaded", balancer="least-ect",
            seed=20220530,
        )
        return run_sharded(
            plan, trace, predictors, specs, default_slo=slo,
            profile=f"{profile}.w{n_workers}" if profile else None,
        )

    r1 = run_once(1)
    r2 = run_once(2)
    r4a = run_once(4)
    r4b = run_once(4)
    wall_s = min(r4a.wall_s, r4b.wall_s)
    return {
        "nodes": sum(len(g) for g in groups),
        "groups": len(groups),
        "workers": 4,
        "requests": r4a.n_requests,
        "n_windows": r4a.n_windows,
        "trace_horizon_s": trace.horizon_s,
        "wall_s": wall_s,
        "wall_1w_s": r1.wall_s,
        "speedup_vs_1w": r1.wall_s / wall_s,
        "requests_per_wall_s": r4a.n_requests / wall_s,
        "p99_ms": r4a.latency_percentile(99.0, trace) * 1e3,
        "shed_rate": r4a.shed_rate,
        "outcome_digest": r4a.digest,
        "digests_match": bool(r1.digest == r2.digest == r4a.digest),
        "deterministic": bool(r4a.digest == r4b.digest),
    }


def bench_drift(tiny: bool) -> dict:
    """Thermal-throttle chaos campaign: frozen vs drift-aware predictor.

    A symmetric 4-node fleet (every node has all three device classes,
    ``max_rank=1`` so the forest's top pick is the only predictor-ranked
    candidate) rides out an overload flood while every node's dGPU is
    silently throttled 8x mid-trace.  The frozen predictor keeps routing
    to the throttled class; the online predictor's drift detector flags
    the residual shift, routing degrades to backlog-only fallback across
    *all* classes, and a live refit plus in-band residuals recover the
    flags once the throttle lifts.  Goodput (served within SLO / resolved)
    is the scoreboard; the online campaign replays digest-identically.
    """
    from repro.cluster import ClusterRouter, NodeSpec, make_fleet
    from repro.faults import FaultInjector
    from repro.nn.zoo import MNIST_SMALL, SIMPLE
    from repro.sched.dataset import generate_dataset
    from repro.sched.online import OnlineConfig, OnlinePredictor
    from repro.sched.policies import Policy
    from repro.sched.predictor import DevicePredictor
    from repro.serving import SLOConfig
    from repro.shard import digest_responses
    from repro.workloads.requests import make_trace
    from repro.workloads.streams import OverloadStream

    specs = {s.name: s for s in (SIMPLE, MNIST_SMALL)}
    dataset = generate_dataset(
        "throughput",
        specs=[SIMPLE, MNIST_SMALL],
        batches=(1, 64, 1024, 16384, 262144),
    )
    slo = SLOConfig(
        deadline_s=0.3, max_queue_depth=64, max_batch=4096, max_wait_s=0.005
    )
    fleet_specs = [NodeSpec(f"node-{c}") for c in "abcd"]
    # The flood must outlast the throttle: the tail is what re-feeds the
    # recovered dGPU (and the frozen twin's drained queues) so recovery
    # is observable inside the trace.
    stream = OverloadStream(
        horizon_s=2.5 if tiny else 5.0,
        slo_s=0.3,
        normal_rate_hz=200,
        overload_rate_hz=8000 if tiny else 12000,
        overload_start_s=0.3 if tiny else 1.0,
        overload_end_s=1.8 if tiny else 3.5,
        normal_batch=64,
        overload_batch=64,
    )
    trace = make_trace(stream, [MNIST_SMALL], rng=7)
    throttle_start = 0.4 if tiny else 1.2
    throttle_dur = 0.8 if tiny else 1.2
    throttle_mult = 16.0

    def run_once(online: bool):
        if online:
            base = DevicePredictor("throughput").fit(dataset)
            predictors = {
                Policy.THROUGHPUT: OnlinePredictor(
                    base, specs, dataset, OnlineConfig()
                )
            }
        else:
            predictors = {
                Policy.THROUGHPUT: DevicePredictor("throughput").fit(dataset)
            }
        fleet = make_fleet(
            fleet_specs, predictors, specs, default_slo=slo, max_rank=1
        )
        router = ClusterRouter(fleet, balancer="least-ect", rng=123)
        injector = FaultInjector(router)
        for spec in fleet_specs:
            injector.throttle_device(
                throttle_start, spec.name, "dgpu", throttle_mult,
                duration_s=throttle_dur,
            )
        result = router.serve_trace(trace)
        return router, result, digest_responses(result.responses)

    t0 = time.perf_counter()
    frozen_router, frozen_result, _ = run_once(online=False)
    online_router, online_result, digest_a = run_once(online=True)
    _, _, digest_b = run_once(online=True)
    wall_s = time.perf_counter() - t0

    frozen_goodput = frozen_router.goodput()
    online_goodput = online_router.goodput()
    rollup = online_router.stats()["online"]
    return {
        "nodes": len(fleet_specs),
        "requests": len(trace),
        "wall_s": wall_s,
        "throttle": (
            f"dgpu x{throttle_mult:g} @ {throttle_start:g}s "
            f"for {throttle_dur:g}s"
        ),
        "goodput_frozen": frozen_goodput,
        "goodput_online": online_goodput,
        "goodput_ratio": (
            online_goodput / frozen_goodput if frozen_goodput else float("inf")
        ),
        "drift_flags": rollup["drift_flags"],
        "refits": rollup["refits"],
        "recoveries": rollup["recoveries"],
        "fallback_decisions": rollup["fallback_decisions"],
        "fallback_occupancy": rollup["fallback_occupancy"],
        "drift_detected": bool(rollup["drift_flags"] >= 1),
        "fallback_engaged": bool(rollup["fallback_decisions"] > 0),
        "recovered": bool(rollup["recoveries"] >= 1),
        "outcome_digest": digest_a,
        "deterministic": bool(digest_a == digest_b),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_hotpaths.json", help="output JSON path"
    )
    parser.add_argument(
        "--tiny", action="store_true",
        help="CI smoke sizes (same schema, mode='tiny')",
    )
    parser.add_argument(
        "--only", action="append", metavar="BENCH",
        choices=("forest", "sweep", "serving", "cluster", "partition",
                 "million", "sharded", "drift"),
        help="run only this benchmark (repeatable); the partial report "
             "will not pass check.py's structure check",
    )
    parser.add_argument(
        "--profile", default=None, metavar="PATH",
        help="cProfile the serving/cluster request path and dump raw "
             "stats to PATH (wall times then include tracing overhead)",
    )
    args = parser.parse_args(argv)

    mode = "tiny" if args.tiny else "full"
    report = {
        "schema": SCHEMA_VERSION,
        "mode": mode,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "benchmarks": {},
    }
    for name, fn in (
        ("forest", bench_forest),
        ("sweep", bench_sweep),
        ("serving", bench_serving),
        ("cluster", bench_cluster),
        ("partition", bench_partition),
        ("million", bench_million),
        ("sharded", bench_sharded),
        ("drift", bench_drift),
    ):
        if args.only and name not in args.only:
            continue
        print(f"[bench-wallclock] {name} ({mode}) ...", flush=True)
        kwargs = {}
        if name in ("serving", "cluster", "million", "sharded") and args.profile:
            kwargs["profile"] = args.profile
        report["benchmarks"][name] = fn(args.tiny, **kwargs)

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[bench-wallclock] wrote {args.out}")
    benches = report["benchmarks"]
    if "forest" in benches:
        for batch, row in benches["forest"]["batches"].items():
            print(f"  forest batch {batch}: {row['speedup']:.1f}x flat vs recursive")
    if "sweep" in benches:
        sweep = benches["sweep"]
        print(f"  sweep warm: {sweep['speedup']:.1f}x vs cold "
              f"(labels identical: {sweep['labels_identical']})")
    for name in ("serving", "cluster"):
        if name in benches:
            row = benches[name]
            print(f"  {name} flood: {row['wall_s']:.2f}s wall "
                  f"({row['requests_per_wall_s']:.0f} req/s, "
                  f"cache hit rate {row['decision_cache_hit_rate']:.3f})")
    if "million" in benches:
        row = benches["million"]
        print(f"  million replay: {row['requests']} reqs in "
              f"{row['wall_s']:.2f}s wall "
              f"({row['requests_per_wall_s']:.0f} req/s, "
              f"shed {row['shed_rate']:.3f}, "
              f"deterministic: {row['deterministic']})")
    if "drift" in benches:
        row = benches["drift"]
        print(f"  drift campaign: goodput {row['goodput_online']:.3f} online "
              f"vs {row['goodput_frozen']:.3f} frozen "
              f"({row['goodput_ratio']:.2f}x, "
              f"flags {row['drift_flags']}, refits {row['refits']}, "
              f"recoveries {row['recoveries']}, "
              f"deterministic: {row['deterministic']})")
    if "partition" in benches:
        row = benches["partition"]
        print(f"  partition isolation: rt p99 {row['shared_p99_ms']:.1f}ms "
              f"shared vs {row['partitioned_p99_ms']:.2f}ms split "
              f"(slo {row['latency_slo_ms']:.0f}ms, "
              f"holds: {row['isolation_holds']}, "
              f"deterministic: {row['deterministic']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
