"""Seed-1 flood and drift fire one loop event per lone arrival.

On both workloads nearly every arrival is a run of one, routed and
admitted inside its route event; the rest of the count is flush timers
and completions.  A change that falls back to a separate arrival event
per request (2.08 events per request on flood, 2.10 on drift) keeps every
outcome digest, so only the event count shows it: it is pinned here.  The
workloads are imported from ``perfbench/workloads.py``, as the benchmark
builds them.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: ``router.loop.processed`` after one seed-1 replay.
EVENTS_FIRED = {"flood": 17_240, "drift": 18_821}


@pytest.fixture(scope="module")
def perfbench_workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", sorted(EVENTS_FIRED))
def test_seed_one_event_count_is_pinned(perfbench_workloads, name):
    workload = perfbench_workloads.WORKLOADS[name]()
    workload.setup(1)
    outcome = workload.replay()
    assert outcome.router.loop.processed == EVENTS_FIRED[name]
