"""Outcome columns, the coordinator's merge and the deferred digest."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import NodeSpec
from repro.errors import SchedulerError
from repro.nn.zoo import SIMPLE
from repro.serving import SLOConfig
from repro.shard import coordinator, digest_rows
from repro.shard.messages import GroupOutcome
from repro.shard.worker import GroupRuntime, WorkerConfig
from repro.workloads.requests import InferenceRequest, RequestTrace

from tests.serving.conftest import SERVING_SPECS
from tests.shard.conftest import run_plan
from tests.shard.test_messages import ROWS, columns_of


def block(group: int, rows) -> GroupOutcome:
    return GroupOutcome(group, columns_of(rows), telemetry={}, utilization={})


def test_merge_sorts_the_groups_rows_by_request_id():
    merged = coordinator._merge(
        [block(0, ROWS[3:]), block(1, ROWS[:3])], len(ROWS)
    )
    assert merged == ROWS


def test_merge_rejects_columns_of_unequal_length():
    columns = columns_of(ROWS)
    columns[4].pop()
    short = GroupOutcome(2, columns, telemetry={}, utilization={})
    with pytest.raises(SchedulerError, match="group 2 shipped outcome columns"):
        coordinator._merge([short], len(ROWS))


def test_merge_rejects_a_count_that_misses_the_trace():
    with pytest.raises(
        SchedulerError, match="sharded merge resolved 4 outcomes for a 5-request"
    ):
        coordinator._merge([block(0, ROWS[:4])], len(ROWS))


def test_merge_rejects_a_request_resolved_in_two_groups():
    twice = [block(0, ROWS[:3]), block(1, ROWS[2:4])]
    with pytest.raises(SchedulerError, match="request 2 resolved on two shards"):
        coordinator._merge(twice, 5)


def test_digest_is_computed_on_first_read_only(
    serving_predictors, shard_trace, monkeypatch
):
    calls = []

    def counting(rows):
        calls.append(1)
        return digest_rows(rows)

    monkeypatch.setattr(coordinator, "digest_rows", counting)
    result = run_plan(serving_predictors, shard_trace, n_workers=2)
    assert calls == []
    assert result.digest == digest_rows(result.rows)
    assert result.digest == digest_rows(result.rows)
    assert len(calls) == 1


def test_finalized_columns_zip_to_the_outcome_tuples(serving_predictors):
    """A burst past a 4-deep queue on one node: served and shed rows."""
    trace = RequestTrace(tuple(
        InferenceRequest(i, 0.0, SIMPLE.name, 1) for i in range(12)
    ))
    (cfg,) = coordinator.ShardPlan(
        groups=((NodeSpec("c-a", device_classes=("cpu",)),),),
    ).group_configs()
    shared = WorkerConfig(
        worker=0, groups=(cfg,), trace=trace,
        predictors=serving_predictors, model_specs=SERVING_SPECS,
        default_slo=SLOConfig(
            deadline_s=0.3, max_queue_depth=4, max_batch=64, max_wait_s=0.005
        ),
    )
    runtime = GroupRuntime(cfg, shared)
    runtime.feed(np.arange(len(trace)))
    outcome = runtime.finalize()
    expected = [r.outcome_tuple() for r in runtime._responses]
    assert {row[1] for row in expected} == {"ok", "shed"}
    assert list(zip(*outcome.columns, strict=True)) == expected
    assert all(type(column) is list for column in outcome.columns)
