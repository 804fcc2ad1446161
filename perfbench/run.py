"""Replay benchmark for the fleet scheduler: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mix --seed 1 --seconds 20 --trace 0

One caller drives the program in a closed loop: set up (train the
predictor, generate the seeded trace, build a fresh fleet), then replay
the whole trace through the public entry point
(``ClusterRouter.serve_trace(vectorized=True)`` or
``repro.shard.run_sharded``), one round at a time, until ``--seconds``
have passed.  The trace itself is an open-loop arrival schedule in
virtual time, so simulated queues can grow and the generator never runs
late.

The host this is sized for slows a program down, in bursts and in
phases of minutes at half speed, without telling it; and the first
replay in a process is always the slowest.  So every set-up and replay
is timed between two blocks of fixed reference work (``hostref.py``)
and scaled to the host's nominal speed; ``replay_rps`` is requests over
the median scaled warm replay (the first replay never counts), and
``setup_s`` the median scaled set-up.  Raw walls are printed too.

Every replay passes a correctness gate: each request resolves exactly
once (served + shed = attempted), and the SHA-256 outcome digest and the
simulated metrics are identical across repeats.  The digest is printed
so a later change can show it unchanged.

``--trace 1`` adds traced rounds (see ``tracing.py``) and reports the
per-layer metrics instead of the end-to-end ones; end-to-end figures
always come from untraced replays.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostref

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Set-up + replay rounds per run at least; the first replay is warm-up.
MIN_ROUNDS = 4
#: Traced rounds in a ``--trace 1`` run; the metrics come from the last.
TRACED_ROUNDS = 2
#: Span prefixes traced per workload.  ``sharded`` serves in forked
#: workers whose spans never reach this process, so only the
#: coordinator's boundaries and the set-up are wrapped there.
TRACED_LAYERS = {
    "sharded": ("shard.", "ml.fit", "workloads."),
}
ALL_LAYERS = ("",)

END_TO_END = (
    ("replay_rps", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_goodput", "fraction"),
    ("sim_p50_ms", "ms"),
    ("sim_p99_ms", "ms"),
    ("sim_shed_rate", "fraction"),
)


def trace_digest(trace) -> str:
    """SHA-256 over the generated requests: same seed, same inputs."""
    h = hashlib.sha256()
    for r in trace:
        h.update(
            f"{r.request_id},{r.arrival_s!r},{r.model},{r.batch},"
            f"{r.deadline_s!r}\n".encode()
        )
    return h.hexdigest()


class Gate:
    """Correctness and failure accounting across every replay of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: "list[str]" = []
        self.digest: "str | None" = None
        self.sim: "dict | None" = None
        self.served = 0

    def error(self, message: str) -> None:
        self.errors.append(message)
        print(f"correctness: {message}", file=sys.stderr)

    def raised(self, n: int) -> None:
        """A replay of ``n`` requests raised: none of them resolved."""
        self.attempted += n
        self.failed += n
        self.error("replay raised:\n" + traceback.format_exc())

    def check(self, workload, outcome) -> None:
        """Gate one replay and keep its simulated metrics."""
        from workloads import served_latencies_s

        trace, rows = workload.trace, outcome.rows
        n = len(trace)
        self.attempted += n
        served = sum(1 for row in rows if row[1] == "ok")
        shed = sum(1 for row in rows if row[1] == "shed")
        unresolved = n - served - shed
        self.failed += max(unresolved, 0)
        if [row[0] for row in rows] != [r.request_id for r in trace]:
            self.error("outcome rows do not cover the trace once each, in order")
        if unresolved:
            self.error(f"{unresolved} of {n} requests unresolved")
        latencies = served_latencies_s(rows, trace)
        if latencies.size == 0 or latencies.min() < 0.0:
            self.error("no served requests, or a completion before its arrival")
            return
        sim = {
            "sim_goodput": outcome.goodput,
            "sim_p50_ms": _percentile(latencies, 50.0) * 1e3,
            "sim_p99_ms": _percentile(latencies, 99.0) * 1e3,
            "sim_shed_rate": shed / n,
        }
        digest = workload.digest(outcome)
        if self.digest is None:
            self.digest, self.sim, self.served = digest, sim, served
        elif digest != self.digest or sim != self.sim:
            self.error(
                f"repeat diverged: digest {digest} vs {self.digest}, "
                f"sim {sim} vs {self.sim}"
            )

    @property
    def correct(self) -> bool:
        return not self.errors


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def scaled(wall: float, ref_before: float, ref_after: float) -> float:
    """``wall`` at the host's nominal speed, from the reference blocks
    timed right before and right after it (see ``hostref.py``)."""
    return wall * hostref.NOMINAL_S * 2.0 / (ref_before + ref_after)


def measure(workload, seed: int, gate: Gate, seconds: float):
    """Timed set-up + timed replay, repeated until ``seconds`` pass.

    Returns the set-up walls and the replay walls, each as (raw, scaled)
    pairs, and the inputs digest.  Every round regenerates the trace,
    which must come out identical.
    """
    setups: "list[tuple[float, float]]" = []
    replays: "list[tuple[float, float]]" = []
    inputs: "str | None" = None
    start = time.perf_counter()
    hard_stop = start + 3.0 * seconds + 30.0
    before = hostref.block()
    while len(replays) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        if time.perf_counter() > hard_stop:
            break
        # The last round's fleet is garbage now; collect it untimed so
        # neither the next set-up nor the next replay pays for it.
        gc.collect()
        t0 = time.perf_counter()
        workload.setup(seed)
        wall = time.perf_counter() - t0
        between = hostref.block()
        setups.append((wall, scaled(wall, before, between)))
        digest = trace_digest(workload.trace)
        if inputs is None:
            inputs = digest
        elif digest != inputs:
            raise RuntimeError(f"seed {seed} generated two different traces")
        t0 = time.perf_counter()
        try:
            outcome = workload.replay()
        except Exception:
            gate.raised(len(workload.trace))
            before = hostref.block()
            continue
        wall = time.perf_counter() - t0
        before = hostref.block()
        replays.append((wall, scaled(wall, between, before)))
        gate.check(workload, outcome)
        del outcome
    return setups, replays, inputs


def peak_rss_mb() -> float:
    """Peak resident set of this process or any (forked) child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def traced_run(name: str, workload, seed: int, gate: Gate,
               untraced_s: float) -> dict:
    """Set up and replay under span tracing; returns per-layer metrics.

    The traced outcomes pass the same gate as the untraced ones, so the
    wrappers are shown to leave the simulated outcome alone.
    """
    from layers import per_layer_metrics
    from tracing import Tracer

    tracer = Tracer()
    tracer.install(TRACED_LAYERS.get(name, ALL_LAYERS))
    replay_walls = []
    try:
        for _ in range(TRACED_ROUNDS):
            with tracer.span("setup") as setup_root:
                workload.setup(seed)
            with tracer.span("replay") as replay_root:
                outcome = workload.replay()
            gate.check(workload, outcome)
            replay_walls.append(tracer.breakdown(replay_root).wall_s)
    finally:
        tracer.uninstall()
    metrics = per_layer_metrics(
        workload, outcome, tracer.breakdown(setup_root),
        tracer.breakdown(replay_root),
    )
    metrics["trace.overhead"] = min(replay_walls) / untraced_s
    out = OUT_DIR / f"spans-{name}-seed{seed}.npz"
    tracer.write(out)
    print(f"spans: {len(tracer.start)} written to {out.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {src}; run from a checkout "
            "of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))
    from layers import PER_LAYER
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload]()
    gate = Gate()
    setups, replays, inputs = measure(workload, args.seed, gate, args.seconds)
    warm = replays[1:] or replays
    n = len(workload.trace)
    replay_s = statistics.median(s for _, s in warm)
    print(
        f"workload {args.workload} seed {args.seed}: {n} requests, "
        f"{len(replays)} replays, inputs sha256={inputs}"
    )
    print(
        f"outcome_digest sha256={gate.digest} "
        f"(served {gate.served}, {gate.served // 100} beyond p99)"
    )
    for label, walls in (("replay", replays), ("setup", setups)):
        print(
            f"{label} walls s, raw: " + " ".join(f"{w:.3f}" for w, _ in walls)
            + " | at nominal host speed: "
            + " ".join(f"{s:.3f}" for _, s in walls)
        )
    if not replays:
        print("perfbench: every replay raised", file=sys.stderr)
        return 1

    if args.trace:
        layer = traced_run(
            args.workload, workload, args.seed, gate, min(w for w, _ in warm)
        )
        metrics = {
            name: {"value": layer.get(name, 0.0), "unit": unit}
            for name, unit in PER_LAYER
        }
    else:
        values = {
            "replay_rps": n / replay_s,
            "setup_s": statistics.median(s for _, s in setups),
            "peak_rss_mb": peak_rss_mb(),
            **(gate.sim or {}),
        }
        metrics = {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in END_TO_END
        }
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
