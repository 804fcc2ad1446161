"""Property tests: the one outcome aggregate equals a direct recount.

``ServingResult``, ``ClusterResult`` and ``CascadeResult`` share one
implementation of their outcome accessors (served, shed, shed rate,
violations, goodput, latency percentiles, shares).  Over random outcome
lists — pending, served early or late, best effort, shed — every accessor
must equal a recount written out here from the raw fields.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cascade.chain import CascadeChain, CascadeResult
from repro.cluster import ClusterResult
from repro.errors import SchedulerError
from repro.serving import LaunchRecord, ServingResponse, ServingResult
from repro.workloads.requests import InferenceRequest

outcome_specs = st.lists(
    st.tuples(
        st.sampled_from(["pending", "ok", "shed"]),
        st.floats(min_value=0.0, max_value=1.0),             # arrival
        st.floats(min_value=0.0, max_value=0.5),             # latency
        st.one_of(st.none(), st.floats(min_value=0.001, max_value=0.5)),  # SLO
        st.sampled_from(["cpu", "igpu", "dgpu"]),
        st.sampled_from(["node-a", "node-b"]),
        st.integers(min_value=1, max_value=3),               # routes
    ),
    max_size=25,
)


def make_responses(specs) -> "list[ServingResponse]":
    responses = []
    for i, (status, arrival, latency, slo, device, node, routes) in enumerate(specs):
        r = ServingResponse(InferenceRequest(
            request_id=i, arrival_s=arrival, model="simple", batch=1,
            deadline_s=None if slo is None else arrival + slo,
        ))
        r.node_name, r.n_routes = node, routes
        if status == "ok":
            r.launch = LaunchRecord(
                device=device, device_name=device, gpu_state="idle",
                trigger="full", batch_id=i, size=1, dispatched_s=arrival,
                start_s=arrival, end_s=arrival + latency, energy_j=latency,
            )
            r.resolve("ok")
        elif status == "shed":
            r.resolve("shed", "queue_full")
        responses.append(r)
    return responses


def make_chains(specs) -> "list[CascadeChain]":
    chains = []
    for i, (status, arrival, latency, slo, *_rest) in enumerate(specs):
        chain = CascadeChain(
            chain_id=i, batch=1, origin_arrival_s=arrival,
            deadline_s=None if slo is None else arrival + slo,
        )
        if status != "pending":
            chain.status = status
            chain.end_s = arrival + latency
        chains.append(chain)
    return chains


def recount(specs) -> dict:
    """Every accessor's value, straight from the drawn fields."""
    n = len(specs)
    served = [i for i, s in enumerate(specs) if s[0] == "ok"]
    shed = [i for i, s in enumerate(specs) if s[0] == "shed"]
    late = [
        i for i in served
        if specs[i][3] is not None
        and specs[i][1] + specs[i][2] > specs[i][1] + specs[i][3] + 1e-9
    ]
    resolved = len(served) + len(shed)
    return {
        "len": n,
        "served": served,
        "shed": shed,
        "shed_rate": len(shed) / n if n else 0.0,
        "n_violations": len(late),
        "goodput": (len(served) - len(late)) / resolved if resolved else 1.0,
        "latencies": [
            (specs[i][1] + specs[i][2]) - specs[i][1] for i in served
        ],
    }


def check_accessors(result, outcomes, expected) -> None:
    assert len(result) == expected["len"]
    assert result.served == [outcomes[i] for i in expected["served"]]
    assert result.shed == [outcomes[i] for i in expected["shed"]]
    assert result.shed_rate == expected["shed_rate"]
    assert result.n_violations == expected["n_violations"]
    assert result.goodput() == expected["goodput"]
    latencies = expected["latencies"]
    for q in (0.0, 50.0, 99.0, 100.0):
        if latencies:
            assert result.latency_percentile(q) == float(
                np.percentile(latencies, q)
            )
        else:
            with pytest.raises(SchedulerError, match="no served"):
                result.latency_percentile(q)


def shares(specs, column) -> dict:
    served = [s for s in specs if s[0] == "ok"]
    keys = sorted({s[column] for s in served})
    return {
        k: sum(1 for s in served if s[column] == k) / len(served) for k in keys
    }


@settings(max_examples=60, deadline=None)
@given(specs=outcome_specs)
def test_serving_and_cluster_results_match_a_recount(specs):
    expected = recount(specs)
    responses = make_responses(specs)
    for result in (
        ServingResult(responses=responses), ClusterResult(responses=responses)
    ):
        check_accessors(result, responses, expected)
        assert result.device_shares() == shares(specs, 4)
        assert result.total_energy_j == float(
            sum(s[2] for s in specs if s[0] == "ok")
        )
    cluster = ClusterResult(responses=responses)
    assert cluster.node_shares() == shares(specs, 5)
    assert cluster.rerouted == [
        r for r, s in zip(responses, specs) if s[6] > 1
    ]


@settings(max_examples=60, deadline=None)
@given(specs=outcome_specs)
def test_cascade_result_matches_a_recount(specs):
    chains = make_chains(specs)
    check_accessors(CascadeResult(chains=chains), chains, recount(specs))
