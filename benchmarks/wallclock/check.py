"""Validate a ``BENCH_hotpaths.json`` report (and gate regressions).

Three layers of checking, from always-on to conditional:

1. **Structure** — the report parses, carries the expected schema
   version, and has every benchmark section with its required fields.
2. **Perf floors**: in full mode, flattened forest inference >= 5x the
   recursive path at the smallest measured batch >= 256, warm
   characterization sweep >= 10x cold, serving >= 15k and cluster >= 8.3k
   requests per wall-clock second (the cluster floor is 4x the
   pre-decision-cache trajectory of ~2.07k), and the cluster decision
   cache > 90% hits.  Tiny CI sizes are noise-dominated, so tiny mode
   gates only *order-of-magnitude* request-path floors (serving >= 1k,
   cluster >= 0.8k req/s) — loose enough for a slow CI runner, tight
   enough to catch an accidental return to per-request forest calls.
   Larger forest batches are *reported* but not gated: the recursive
   reference is itself batch-vectorized (a partition walk whose per-node
   cost amortizes over the batch), so both paths converge toward memory
   bandwidth as the batch grows.  Correctness claims (bit-identical
   forest output, byte-identical sweep labels, and — when the optional
   ``partition`` / ``million`` / ``sharded`` sections are present —
   tenant isolation and replay determinism) are enforced in *every*
   mode.  The million section additionally gates the batched-dispatch
   throughput floor (>= 46.6k req/s full, >= 2k tiny) and its
   trace-population minimum; the sharded section gates digest
   invariance across worker counts plus a 4-worker throughput floor of
   2x the million one (>= 93.2k req/s full, >= 1k tiny — protocol
   overhead makes the tiny trace slower than the monolithic path, which
   is expected and fine).  The ``drift`` section gates the online
   predictor's adaptivity claims in every mode: drift detected, fallback
   engaged, post-refit recovery, a deterministic seeded replay, and
   drift-aware goodput >= 1.15x the frozen predictor's under the same
   throttle campaign.
3. **Regression** — with ``--baseline`` pointing at a committed report of
   the *same mode*, any benchmark whose wall time grew by more than
   ``--factor`` (default 2.0) fails the check.  A missing baseline or a
   mode mismatch skips this layer with a notice, so CI smoke runs don't
   compare tiny sizes against the committed full-mode trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

SCHEMA_VERSION = 1

_REQUIRED = {
    "forest": ("equivalent", "batches", "n_trees"),
    "sweep": ("cold_s", "warm_s", "speedup", "labels_identical"),
    "serving": (
        "requests", "wall_s", "requests_per_wall_s", "decision_cache_hit_rate",
    ),
    "cluster": (
        "requests", "wall_s", "nodes", "requests_per_wall_s",
        "decision_cache_hit_rate",
    ),
}

#: Fields the optional ``partition`` section must carry when present.
#: Not in ``_REQUIRED``: reports predating the partition subsystem (the
#: committed trajectory artifact among them) stay valid without it.
_PARTITION_KEYS = (
    "latency_slo_ms", "shared_p99_ms", "partitioned_p99_ms",
    "isolation_holds", "deterministic",
)

#: Fields the optional ``million`` section must carry when present (same
#: contract as ``partition``: older committed reports stay valid).
_MILLION_KEYS = (
    "requests", "wall_s", "requests_per_wall_s", "shed_rate",
    "outcome_digest", "deterministic",
)

#: Fields the optional ``sharded`` section must carry when present.
_SHARDED_KEYS = (
    "requests", "workers", "groups", "wall_s", "requests_per_wall_s",
    "outcome_digest", "digests_match", "deterministic",
)

#: Fields the optional ``drift`` section must carry when present.
_DRIFT_KEYS = (
    "requests", "goodput_frozen", "goodput_online", "goodput_ratio",
    "drift_detected", "fallback_engaged", "recovered",
    "outcome_digest", "deterministic",
)

#: The drift-aware predictor must recover at least this much goodput over
#: the frozen one under the seeded throttle campaign (both modes: the
#: separation is simulated-time, not wall-clock, so tiny is not noisy).
_DRIFT_GOODPUT_RATIO_FLOOR = 1.15

#: Floors for the sharded million-request replay at 4 workers.  Full
#: mode must beat the single-process million floor by >= 2x (2 x 46.6k
#: ~= 93.2k req/s); tiny mode only proves the protocol overhead does not
#: dominate a small trace.
_SHARDED_FLOORS = {
    "full": {"requests": 1_000_000, "rps": 93_200.0},
    "tiny": {"requests": 20_000, "rps": 1_000.0},
}

#: Floors for the million-request serve_trace replay.  Full mode must
#: move a seeded 1M-request production trace at >= 2x the committed
#: cluster trajectory (2 x 23.3k ~= 46.6k req/s); tiny mode only proves
#: the batched path is not accidentally per-event slow.
_MILLION_FLOORS = {
    "full": {"requests": 1_000_000, "rps": 46_600.0},
    "tiny": {"requests": 20_000, "rps": 2_000.0},
}

#: Request-path throughput floors (requests per wall-clock second).
_RPS_FLOORS = {
    "full": {"serving": 15_000.0, "cluster": 8_300.0},
    "tiny": {"serving": 1_000.0, "cluster": 800.0},
}

#: Steady-state decision-cache hit-rate floor (full mode only: the tiny
#: trace is too short to amortize its cold cells).
_CLUSTER_HIT_RATE_FLOOR = 0.9

#: (section, key-path) pairs compared against the baseline's wall times.
_REGRESSION_TIMES = (
    ("sweep", "cold_s"),
    ("sweep", "warm_s"),
    ("serving", "wall_s"),
    ("cluster", "wall_s"),
)


def _fail(msg: str) -> None:
    print(f"[bench-check] FAIL: {msg}")
    raise SystemExit(1)


def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        _fail(f"cannot read {path}: {exc}")


def check_structure(
    report: dict, path: str, sections: "set[str] | None" = None
) -> None:
    if report.get("schema") != SCHEMA_VERSION:
        _fail(f"{path}: schema {report.get('schema')!r} != {SCHEMA_VERSION}")
    if report.get("mode") not in ("full", "tiny"):
        _fail(f"{path}: mode must be 'full' or 'tiny', got {report.get('mode')!r}")
    benches = report.get("benchmarks")
    if not isinstance(benches, dict):
        _fail(f"{path}: missing benchmarks object")
    for section, keys in _REQUIRED.items():
        if sections is not None and section not in sections:
            continue
        if section not in benches:
            _fail(f"{path}: missing benchmark section {section!r}")
        for key in keys:
            if key not in benches[section]:
                _fail(f"{path}: benchmarks.{section} missing {key!r}")
    if "forest" in benches:
        for batch, row in benches["forest"]["batches"].items():
            for key in ("recursive_s", "flat_s", "speedup"):
                if not (isinstance(row.get(key), (int, float)) and row[key] > 0):
                    _fail(f"{path}: forest batch {batch} has bad {key!r}")
    if "partition" in benches:
        for key in _PARTITION_KEYS:
            if key not in benches["partition"]:
                _fail(f"{path}: benchmarks.partition missing {key!r}")
    if "million" in benches:
        for key in _MILLION_KEYS:
            if key not in benches["million"]:
                _fail(f"{path}: benchmarks.million missing {key!r}")
    if "sharded" in benches:
        for key in _SHARDED_KEYS:
            if key not in benches["sharded"]:
                _fail(f"{path}: benchmarks.sharded missing {key!r}")
    if "drift" in benches:
        for key in _DRIFT_KEYS:
            if key not in benches["drift"]:
                _fail(f"{path}: benchmarks.drift missing {key!r}")
    print(f"[bench-check] {path}: structure OK ({report['mode']} mode)")


def check_floors(report: dict) -> None:
    """Gate the sections the report carries (partial reports check less)."""
    benches = report["benchmarks"]
    if "forest" in benches and not benches["forest"]["equivalent"]:
        _fail("flat forest output is not bit-identical to the recursive path")
    if "sweep" in benches and not benches["sweep"]["labels_identical"]:
        _fail("cached sweep labels differ from the cold sweep")
    if "partition" in benches:
        part = benches["partition"]
        if not part["deterministic"]:
            _fail("partitioned tenant run is not reproducible under replay")
        if not part["isolation_holds"]:
            _fail(
                "partitioning did not isolate the latency tenant: p99 "
                f"{part['partitioned_p99_ms']:.2f}ms split vs "
                f"{part['shared_p99_ms']:.2f}ms shared against a "
                f"{part['latency_slo_ms']:.0f}ms SLO"
            )
    if "million" in benches:
        million = benches["million"]
        floors = _MILLION_FLOORS[report["mode"]]
        if not million["deterministic"]:
            _fail("million-request replay digests differ between runs")
        if million["requests"] < floors["requests"]:
            _fail(
                f"million replay covered only {million['requests']} requests "
                f"(< {floors['requests']} for {report['mode']} mode)"
            )
        if million["requests_per_wall_s"] < floors["rps"]:
            _fail(
                f"million replay throughput "
                f"{million['requests_per_wall_s']:.0f} req/s is below the "
                f"{report['mode']}-mode floor of {floors['rps']:.0f}"
            )
        print(f"[bench-check] million replay OK "
              f"({million['requests']} reqs, "
              f"{million['requests_per_wall_s']:.0f} req/s, deterministic)")
    if "sharded" in benches:
        sharded = benches["sharded"]
        floors = _SHARDED_FLOORS[report["mode"]]
        if not sharded["digests_match"]:
            _fail(
                "sharded replay digests differ across worker counts — the "
                "worker layout leaked into the outcome"
            )
        if not sharded["deterministic"]:
            _fail("sharded 4-worker replay digests differ between runs")
        if sharded["requests"] < floors["requests"]:
            _fail(
                f"sharded replay covered only {sharded['requests']} requests "
                f"(< {floors['requests']} for {report['mode']} mode)"
            )
        if sharded["requests_per_wall_s"] < floors["rps"]:
            _fail(
                f"sharded replay throughput "
                f"{sharded['requests_per_wall_s']:.0f} req/s at "
                f"{sharded['workers']} workers is below the "
                f"{report['mode']}-mode floor of {floors['rps']:.0f}"
            )
        print(f"[bench-check] sharded replay OK "
              f"({sharded['requests']} reqs over {sharded['workers']} workers, "
              f"{sharded['requests_per_wall_s']:.0f} req/s, "
              f"digests worker-count-invariant)")
    if "drift" in benches:
        drift = benches["drift"]
        if not drift["deterministic"]:
            _fail("drift campaign online replay digests differ between runs")
        if not drift["drift_detected"]:
            _fail("drift campaign never flagged the throttled device")
        if not drift["fallback_engaged"]:
            _fail("drift campaign never routed through the fallback plan")
        if not drift["recovered"]:
            _fail("drift campaign never recovered a flagged cell post-refit")
        if drift["goodput_ratio"] < _DRIFT_GOODPUT_RATIO_FLOOR:
            _fail(
                f"drift-aware goodput ratio {drift['goodput_ratio']:.3f}x "
                f"(online {drift['goodput_online']:.3f} vs frozen "
                f"{drift['goodput_frozen']:.3f}) is below the "
                f"{_DRIFT_GOODPUT_RATIO_FLOOR:.2f}x floor"
            )
        print(f"[bench-check] drift campaign OK "
              f"(goodput {drift['goodput_ratio']:.2f}x frozen, "
              f"detected/fallback/recovered, deterministic)")
    for section, floor in _RPS_FLOORS[report["mode"]].items():
        if section not in benches:
            continue
        rps = benches[section]["requests_per_wall_s"]
        if rps < floor:
            _fail(
                f"{section} throughput {rps:.0f} req/s is below the "
                f"{report['mode']}-mode floor of {floor:.0f}"
            )
    if report["mode"] != "full":
        print("[bench-check] tiny mode: request-path floors OK; "
              "remaining perf floors skipped (correctness enforced)")
        return
    if "cluster" in benches:
        hit_rate = benches["cluster"]["decision_cache_hit_rate"]
        if hit_rate < _CLUSTER_HIT_RATE_FLOOR:
            _fail(
                f"cluster decision-cache hit rate {hit_rate:.3f} is below "
                f"the {_CLUSTER_HIT_RATE_FLOOR:.2f} floor"
            )
    if "forest" in benches:
        gated = sorted(
            (int(b) for b in benches["forest"]["batches"] if int(b) >= 256)
        )
        if not gated:
            _fail("full-mode report has no forest measurement at batch >= 256")
        row = benches["forest"]["batches"][str(gated[0])]
        if row["speedup"] < 5.0:
            _fail(
                f"forest speedup {row['speedup']:.2f}x at batch {gated[0]} "
                "is below the 5x floor"
            )
    if "sweep" in benches:
        sweep = benches["sweep"]
        if sweep["speedup"] < 10.0:
            _fail(
                f"warm sweep speedup {sweep['speedup']:.2f}x "
                "is below the 10x floor"
            )
    print("[bench-check] perf floors OK for sections: "
          + ", ".join(sorted(benches)))


def check_regression(report: dict, baseline_path: str, factor: float) -> None:
    if not os.path.exists(baseline_path):
        print(f"[bench-check] no baseline at {baseline_path}: regression check skipped")
        return
    baseline = _load(baseline_path)
    check_structure(baseline, baseline_path)
    if baseline["mode"] != report["mode"]:
        print(
            f"[bench-check] baseline mode {baseline['mode']!r} != "
            f"report mode {report['mode']!r}: regression check skipped"
        )
        return
    for section, key in _REGRESSION_TIMES:
        now = report["benchmarks"][section][key]
        then = baseline["benchmarks"][section][key]
        if now > factor * then:
            _fail(
                f"{section}.{key} regressed {now / then:.2f}x "
                f"({then:.4f}s -> {now:.4f}s, limit {factor:.1f}x)"
            )
    for batch, base_row in baseline["benchmarks"]["forest"]["batches"].items():
        row = report["benchmarks"]["forest"]["batches"].get(batch)
        if row is not None and row["flat_s"] > factor * base_row["flat_s"]:
            _fail(
                f"forest.flat_s at batch {batch} regressed "
                f"{row['flat_s'] / base_row['flat_s']:.2f}x (limit {factor:.1f}x)"
            )
    print(f"[bench-check] no >{factor:.1f}x regression vs {baseline_path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="BENCH_hotpaths.json to validate")
    parser.add_argument(
        "--baseline", default=None,
        help="committed report to gate wall-time regressions against",
    )
    parser.add_argument(
        "--factor", type=float, default=2.0,
        help="allowed wall-time growth vs baseline (default 2.0)",
    )
    parser.add_argument(
        "--structure-only", action="store_true",
        help="only validate shape/fields (e.g. for the committed artifact)",
    )
    parser.add_argument(
        "--sections", default=None, metavar="A,B",
        help="comma-separated sections a partial report (run.py --only) "
             "must carry; other sections may be absent and are not gated",
    )
    args = parser.parse_args(argv)

    sections = (
        None if args.sections is None
        else {s.strip() for s in args.sections.split(",") if s.strip()}
    )
    if sections is not None:
        # A typo here used to be silently ignored — the unknown name
        # matched nothing, so the check "passed" while gating nothing.
        known = set(_REQUIRED) | {"partition", "million", "sharded", "drift"}
        unknown = sections - known
        if unknown:
            _fail(
                f"unknown --sections name(s) {sorted(unknown)}; "
                f"known sections: {', '.join(sorted(known))}"
            )
    report = _load(args.report)
    check_structure(report, args.report, sections)
    if args.structure_only:
        return 0
    check_floors(report)
    if args.baseline is not None:
        check_regression(report, args.baseline, args.factor)
    print("[bench-check] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
