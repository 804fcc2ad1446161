"""Property tests: merging outcome sinks equals depositing into one.

``ServingTelemetry.merge`` is the only rollup of outcome sinks (a fleet
over its nodes, a tenant over its nodes).  For 1-4 random sinks, each fed
a random run of the frontend's deposits — some of them also into a
tenant ledger, as a frontend does for a tenant's model — the merge must
equal one sink fed every deposit in the same order: counters, latency
samples and exact percentiles, the recent window, peak depths, the batch
histogram, and the tenant ledger.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.serving import RollingLatencyWindow, ServingTelemetry

latency = st.floats(min_value=0.0, max_value=1.0)

deposits = st.one_of(
    st.tuples(
        st.just("served"),
        st.lists(st.tuples(latency, st.booleans()), min_size=1, max_size=5),
    ),
    st.tuples(st.sampled_from(["shed", "degraded", "failed"]), st.none()),
    st.tuples(
        st.just("depth"),
        st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 40)),
    ),
    st.tuples(st.just("batch"), st.integers(1, 5000)),
)

runs = st.lists(
    st.lists(st.tuples(deposits, st.booleans()), max_size=25),
    min_size=1,
    max_size=4,
)


def deposit(sink: ServingTelemetry, kind: str, arg) -> None:
    if kind == "served":
        sink.record_served([x for x, _ in arg], [late for _, late in arg])
    elif kind == "shed":
        sink.n_shed += 1
    elif kind == "degraded":
        sink.n_degraded += 1
    elif kind == "failed":
        sink.n_failed += 1
    elif kind == "depth":
        sink.record_depth(*arg)
    else:
        sink.batch_sizes.add(arg)


def feed(sink: ServingTelemetry, run) -> None:
    ledger = sink.tenants["t"]
    for (kind, arg), tenant in run:
        deposit(sink, kind, arg)
        if tenant:
            deposit(ledger, kind, arg)


def with_ledger(maxlen: int = 256) -> ServingTelemetry:
    sink = ServingTelemetry(recent=RollingLatencyWindow(maxlen))
    sink.tenants["t"] = ServingTelemetry(recent=RollingLatencyWindow(maxlen))
    return sink


def assert_same(merged: ServingTelemetry, one: ServingTelemetry) -> None:
    for name in ("n_served", "n_shed", "n_degraded", "n_violations", "n_failed"):
        assert getattr(merged, name) == getattr(one, name), name
    assert merged.latency.samples == one.latency.samples
    if len(one.latency):
        for q in (50.0, 95.0, 99.0):
            assert merged.latency.percentile(q) == one.latency.percentile(q)
    assert merged.recent.samples == one.recent.samples
    assert merged.recent.p99_s == one.recent.p99_s
    assert merged.peak_depth == one.peak_depth
    assert merged.max_queue_depth == one.max_queue_depth
    assert merged.batch_sizes.counts == one.batch_sizes.counts
    assert len(merged.batch_sizes) == len(one.batch_sizes)
    if len(one.batch_sizes):
        assert merged.batch_sizes.mean_samples == one.batch_sizes.mean_samples
    assert merged.snapshot() == one.snapshot()


@settings(max_examples=150, deadline=None)
@given(runs)
def test_merge_equals_one_sink_fed_every_deposit(runs):
    sinks = [with_ledger() for _ in runs]
    for sink, run in zip(sinks, runs):
        feed(sink, run)
    # No run overflows a 256-sample window, so one sink whose window is
    # as long as all of theirs together keeps every recent sample too.
    one = with_ledger(256 * len(runs))
    for run in runs:
        feed(one, run)

    merged = ServingTelemetry.merge(sinks)
    assert_same(merged, one)
    assert set(merged.tenants) == {"t"}
    assert_same(merged.tenants["t"], one.tenants["t"])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 6), st.lists(latency, max_size=12)),
        min_size=1,
        max_size=4,
    )
)
def test_merged_recent_window_concatenates_each_window(windows):
    """Past overflow each sink keeps only its own latest samples; the
    merge keeps exactly those, in sink order, and loses none of them."""
    sinks = []
    for maxlen, samples in windows:
        sink = ServingTelemetry(recent=RollingLatencyWindow(maxlen))
        sink.record_latency(samples)
        sinks.append(sink)
    merged = ServingTelemetry.merge(sinks)
    assert merged.recent.samples == sum((s.recent.samples for s in sinks), ())
    assert merged.latency.samples == sum((s.latency.samples for s in sinks), ())
