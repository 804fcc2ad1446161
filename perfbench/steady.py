"""Steadiness check: run sets of the benchmark on one commit and compare.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --runs 5 --sets 1 --workloads drift

Each set runs every chosen workload ``--runs`` times, one fresh process
per run, each run with its own seed; set ``k`` takes seeds
``k * runs + 1 ...``, so no two runs share a seed and the simulated
metrics, which the seed fixes, vary between sets as well as within one.
Runs of different workloads are interleaved, so a slow phase of the
host lands on all of them alike.

Per workload and end-to-end metric it prints each set's median,
quartiles and spread (inter-quartile range over median), then checks
what a later change is held to, with the bounds of BENCHMARK.json:

* ``spread``: every set's spread is within the bound (``setup_s`` is
  exempt), and ``tight`` marks a spread under a third of it;
* ``agree``: no later set's median is worse than the first set's by more
  than the bound.

The raw results go to ``.perfbench_out/steady.json``.  Exits 1 when a
run fails or a check does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(lines[-1])


def summary(values: "list[float]") -> "tuple[float, float, float, float]":
    """(median, first quartile, third quartile, spread) of ``values``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    args = parser.parse_args(argv)
    if args.runs < 2 or args.sets < 1:
        parser.error("need --runs >= 2 and --sets >= 1")

    # results[workload][set] is a list of result objects.
    results = {w: [[] for _ in range(args.sets)] for w in args.workloads}
    ok = True
    for k in range(args.sets):
        for i in range(args.runs):
            seed = k * args.runs + i + 1
            for w in args.workloads:
                t0 = time.perf_counter()
                res = run_once(w, seed, args.seconds)
                results[w][k].append(res)
                ok = ok and res["correct"] and res["failed"] == 0
                print(
                    f"set {k} seed {seed:3d} {w:8s} "
                    f"{time.perf_counter() - t0:5.1f}s correct={res['correct']} "
                    + " ".join(
                        f"{m}={v['value']:.6g}" for m, v in res["metrics"].items()
                    ),
                    flush=True,
                )
    out = ROOT / ".perfbench_out" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results))

    print(f"\n{'workload':8s} {'metric':14s} set {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} spread  bound  checks")
    for w in args.workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            firsts = None
            for k, runs in enumerate(results[w]):
                med, q1, q3, spread = summary(
                    [r["metrics"][name]["value"] for r in runs]
                )
                checks = []
                if name != "setup_s":
                    checks.append("spread" if spread <= bound else "SPREAD!")
                    if spread < bound / 3:
                        checks.append("tight")
                if firsts is None:
                    firsts = med
                else:
                    drift = worse_by(firsts, med, metric["better"])
                    checks.append(
                        f"agree({drift:+.3f})" if drift <= bound
                        else f"DISAGREE({drift:+.3f})"
                    )
                ok = ok and not any(c.endswith("!") or c.startswith("DIS")
                                    for c in checks)
                print(f"{w:8s} {name:14s} {k:3d} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:6.3f} {bound:6.3f}  "
                      + " ".join(checks))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
