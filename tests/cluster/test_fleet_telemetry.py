"""FleetTelemetry: read-through aggregation over per-node sinks (pure)."""

import numpy as np
import pytest

from repro.telemetry import FleetTelemetry, RollingLatencyWindow
from repro.telemetry.serving import ServingTelemetry


def node_sink(latencies, shed=0, degraded=0, violations=0) -> ServingTelemetry:
    t = ServingTelemetry()
    t.record_served(latencies, [False] * len(latencies))
    t.n_shed = shed
    t.n_degraded = degraded
    t.n_violations = violations
    return t


@pytest.fixture()
def fleet():
    ft = FleetTelemetry()
    ft.attach("a", node_sink([0.010, 0.020, 0.030], shed=2, violations=1))
    ft.attach("b", node_sink([0.100, 0.200], degraded=1))
    return ft


def test_counters_sum_across_nodes(fleet):
    merged = fleet.merged()
    assert merged.n_served == 5
    assert merged.n_shed == 2
    assert merged.n_degraded == 1
    assert merged.n_violations == 1
    assert merged.shed_rate == pytest.approx(2 / 7)
    assert len(fleet) == 2
    assert fleet.node_names == ["a", "b"]


def test_percentiles_merge_all_samples(fleet):
    merged = [0.010, 0.020, 0.030, 0.100, 0.200]
    latency = fleet.merged().latency
    assert sorted(latency.samples) == merged
    for q in (50.0, 95.0, 99.0):
        assert latency.percentile(q) == pytest.approx(float(np.percentile(merged, q)))
    assert latency.p50_s <= latency.p95_s <= latency.p99_s
    assert fleet.recent_p99_s() == pytest.approx(
        float(np.percentile(merged, 99.0))
    )


def test_long_run_fleet_percentile_merges_every_sample():
    """70,000 samples per node: the fleet tail is still the merged one,
    not an average of per-node tails (which would read 50.5 ms)."""
    fast, slow = [0.001] * 70_000, [0.100] * 70_000
    ft = FleetTelemetry()
    ft.attach("fast", node_sink(fast))
    ft.attach("slow", node_sink(slow))
    latency = ft.merged().latency
    assert latency.p99_s == float(np.percentile(fast + slow, 99.0))
    assert latency.p99_s == pytest.approx(0.100)
    assert latency.p50_s == float(np.percentile(fast + slow, 50.0))


def test_empty_fleet_degenerates_cleanly():
    ft = FleetTelemetry()
    merged = ft.merged()
    assert merged.n_served == 0
    assert merged.shed_rate == 0.0
    assert ft.recent_p99_s() is None
    assert merged.max_queue_depth == 0
    with pytest.raises(ValueError, match="no latency samples"):
        merged.latency.percentile(99.0)
    snap = ft.snapshot()
    assert snap["nodes"] == 0
    assert "p99_ms" not in snap and "recent_p99_ms" not in snap


def test_attach_is_idempotent_but_exclusive(fleet):
    fleet.attach("a", fleet.node("a"))  # same sink: fine
    with pytest.raises(ValueError, match="already attached"):
        fleet.attach("a", ServingTelemetry())
    with pytest.raises(KeyError, match="no telemetry"):
        fleet.node("zz")


def test_recent_window_is_bounded_per_node():
    ft = FleetTelemetry()
    sink = ServingTelemetry(recent=RollingLatencyWindow(maxlen=4))
    ft.attach("a", sink)
    sink.record_latency((1.0, 1.0, 1.0, 0.001, 0.001, 0.001, 0.001))
    # The 1.0s outliers rolled off: the recent tail is the recent tail.
    assert ft.recent_p99_s() == pytest.approx(0.001)
    # ...while the all-time digest still remembers them.
    assert ft.merged().latency.p99_s > 0.5


def test_depth_series_and_snapshot(fleet):
    fleet.node("a").record_depth("simple", 3)
    fleet.node("a").record_depth("simple", 7)
    fleet.node("a").record_depth("simple", 1)
    fleet.node("b").record_depth("simple", 2)
    assert fleet.merged().max_queue_depth == 7
    assert fleet.node("a").peak_depth == {"simple": 7}
    assert fleet.node("b").peak_depth == {"simple": 2}

    snap = fleet.snapshot()
    assert snap["served"] == 5 and snap["shed"] == 2
    assert snap["max_queue_depth"] == 7
    assert snap["p99_ms"] == pytest.approx(fleet.merged().latency.p99_s * 1e3)
    assert set(snap["per_node"]) == {"a", "b"}
    assert snap["per_node"]["a"]["served"] == 3
