"""Smoke-run every example script: the documented flows must keep working.

Each example is executed as a subprocess (as a user would run it) and held
to exit code 0 plus a couple of output landmarks.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")
SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")

LANDMARKS = {
    "quickstart.py": ["devices:", "policy=throughput", "policy=energy"],
    "characterize_devices.py": ["best device by throughput", "best device by energy"],
    "video_analytics_stream.py": ["placement by traffic period", "prediction accuracy"],
    "energy_aware_overnight.py": ["scheduler saves", "iGPU share at night"],
    "train_workload_models.py": ["offline training phase", "portability check"],
    "custom_device.py": ["4-device energy-label distribution", "npu"],
    "system_changes.py": ["dGPU contended", "spills off the predictor's pick"],
    "power_timeline.py": ["mean power per", "window energies"],
    "cooperative_batch.py": ["one batch, all devices", "speedup"],
    "serving_frontend.py": ["SLO-aware serving", "max queue depth", "coalesced batches"],
    "cluster_serving.py": ["balancing policies", "graceful drain", "autoscaler"],
    "cascade_serving.py": [
        "cascade vs single-model serving",
        "exit histogram",
        "all promises held",
    ],
    "chaos_cluster.py": [
        "fault campaign",
        "accounted exactly once",
        "identical seeds replay to identical stats",
    ],
    "partitioned_cluster.py": [
        "latency tenant vs batch flood",
        "isolation holds",
        "repartitioner split the dGPU",
        "replay reproduces every response",
    ],
    "million_replay.py": [
        "both dispatch paths",
        "digit-identical",
        "per-event",
        "batched",
    ],
    "sharded_replay.py": [
        "shard groups",
        "digest-identical",
        "conservative windows",
        "degenerate case verified",
    ],
    "online_drift.py": [
        "silent dGPU throttle campaign",
        "drift flags",
        "drift detected -> fallback -> refit -> recovery",
        "replay digest-identical",
    ],
}

#: Extra CLI arguments per script (chaos runs its CI-sized campaign here).
EXAMPLE_ARGS = {
    "chaos_cluster.py": ["--tiny"],
    "cascade_serving.py": ["--tiny"],
    "partitioned_cluster.py": ["--tiny"],
    "million_replay.py": ["--tiny"],
    "sharded_replay.py": ["--tiny"],
    "online_drift.py": ["--tiny"],
}


def test_every_example_has_a_smoke_test():
    scripts = {f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".py")}
    assert scripts == set(LANDMARKS), (
        "examples/ and the LANDMARKS table are out of sync"
    )


@pytest.mark.parametrize("script", sorted(LANDMARKS))
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, script)]
        + EXAMPLE_ARGS.get(script, []),
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    for landmark in LANDMARKS[script]:
        assert landmark in proc.stdout, (
            f"{script}: expected {landmark!r} in output;\n{proc.stdout[-2000:]}"
        )
