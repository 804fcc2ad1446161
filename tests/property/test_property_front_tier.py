"""Property test: window-at-a-time front tiers equal the per-request walk.

For random group counts, load summaries, request ids and batches, and
random cuts of the stream into windows (each opened by fresh summaries),
every tier's one-call-per-window ``choose`` must return exactly the
groups its per-request oracle (``tests/front_tier_oracle.py``) picks,
tie-breaks included.  Windows are also split into several calls, which
must route them the same way.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.balancers import ShardSummary, make_front_tier
from repro.workloads.requests import InferenceRequest

from tests.front_tier_oracle import ORACLES


def summaries_for(n_groups):
    # Small ranges make equal loads (the tie-break paths) common.
    return st.tuples(*[
        st.builds(
            ShardSummary,
            group=st.just(g),
            virtual_time_s=st.just(0.0),
            outstanding=st.integers(0, 6),
            outstanding_samples=st.integers(0, 64),
            queued=st.just(0),
            served=st.just(0),
            shed=st.just(0),
        )
        for g in range(n_groups)
    ])


@st.composite
def scenarios(draw):
    n_groups = draw(st.integers(1, 6))
    n = draw(st.integers(0, 80))
    # Request ids are integers >= 0; the hash tier masks them to 64 bits.
    ids = draw(st.lists(
        st.integers(0, 2**64 - 1), min_size=n, max_size=n
    ))
    batches = draw(st.lists(
        st.one_of(st.integers(1, 8), st.integers(1, 4096)), min_size=n, max_size=n
    ))
    requests = [
        InferenceRequest(request_id=rid, arrival_s=0.0, model="simple", batch=b)
        for rid, b in zip(ids, batches)
    ]
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=6)))
    bounds = [0, *cuts, n]
    windows = [
        (
            requests[lo:hi],
            draw(summaries_for(n_groups)),
            draw(st.integers(0, hi - lo)),   # an extra split inside the window
        )
        for lo, hi in zip(bounds, bounds[1:])
    ]
    return n_groups, windows


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(ORACLES)), scenario=scenarios())
def test_window_choose_matches_per_request_oracle(name, scenario):
    n_groups, windows = scenario
    tier = make_front_tier(name, n_groups)
    split = make_front_tier(name, n_groups)
    oracle = ORACLES[name](n_groups)
    for window, summaries, cut in windows:
        tier.begin_window(summaries)
        split.begin_window(summaries)
        oracle.begin_window(summaries)
        expected = [oracle.choose(r) for r in window]
        got = tier.choose(window)
        assert got.dtype.kind == "i" and len(got) == len(window)
        assert got.tolist() == expected
        parts = split.choose(window[:cut]).tolist() + split.choose(window[cut:]).tolist()
        assert parts == expected
