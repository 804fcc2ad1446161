"""The serving LatencyDigest keeps every sample and answers exactly."""

import numpy as np
import pytest

from repro.telemetry.serving import (
    LatencyDigest,
    RollingLatencyWindow,
    ServingTelemetry,
)


class TestExactPhase:
    def test_percentiles_exact_under_bound(self):
        digest = LatencyDigest()
        xs = np.random.default_rng(0).uniform(0.001, 0.2, 60)
        for x in xs:
            digest.add(float(x))
        assert digest.p99_s == float(np.percentile(xs, 99.0))
        assert digest.percentile(12.5) == float(np.percentile(xs, 12.5))
        assert digest.samples == tuple(xs)

    def test_negative_latency_raises(self):
        with pytest.raises(ValueError, match=">= 0"):
            LatencyDigest().add(-0.1)

    def test_empty_digest_raises(self):
        digest = LatencyDigest()
        with pytest.raises(ValueError, match="no latency samples"):
            digest.percentile(50.0)
        with pytest.raises(ValueError, match="no latency samples"):
            digest.mean_s


def test_long_run_percentiles_stay_exact():
    """Past 2**16 samples every tail is still np.percentile over all."""
    xs = np.random.default_rng(1).exponential(0.05, 70_000)
    digest = LatencyDigest()
    for x in xs:
        digest.add(float(x))
    assert len(digest) == 70_000
    assert digest.p99_s == float(np.percentile(xs, 99.0))
    assert digest.p50_s == float(np.percentile(xs, 50.0))
    assert digest.mean_s == pytest.approx(float(xs.mean()), rel=1e-12)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "record",
    [
        lambda x: LatencyDigest().add(x),
        lambda x: RollingLatencyWindow().add(x),
        lambda x: ServingTelemetry().record_latency([x]),
        lambda x: ServingTelemetry().record_served([x], [False]),
    ],
    ids=["digest", "window", "serving", "tenant"],
)
def test_non_finite_latency_raises(record, bad):
    with pytest.raises(ValueError, match="latency_s"):
        record(bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
@pytest.mark.parametrize("at", [0, 2, 4])
def test_a_bad_sample_stores_none_of_its_batch(bad, at):
    telemetry = ServingTelemetry()
    telemetry.record_latency([0.010, 0.020])
    batch = [0.001, 0.002, 0.003, 0.004, 0.005]
    batch[at] = bad
    with pytest.raises(ValueError, match=f"latency_s .* got {bad}"):
        telemetry.record_latency(batch)
    assert telemetry.latency.samples == telemetry.recent.samples == (0.010, 0.020)
    telemetry.record_latency(batch[:at])
    assert len(telemetry.latency) == len(telemetry.recent) == 2 + at


def test_negative_depth_raises():
    with pytest.raises(ValueError, match="depth must be >= 0"):
        ServingTelemetry().record_depth("simple", -1)
