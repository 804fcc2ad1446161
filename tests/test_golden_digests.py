"""The four perfbench workloads replay to pinned outcome digests at seed 1.

Each digest is the SHA-256 over every request's canonical outcome row
(status, node, device, completion time, shed reason), so a one-bit change
to any seed-1 outcome of mix, flood, drift or sharded fails here.  The
workloads are imported from ``perfbench/workloads.py`` exactly as the
benchmark builds them (``perfbench/`` goes on ``sys.path`` for the
import), so this pins what the benchmark replays.  Changing a pinned value
is an explicit edit of :data:`GOLDEN`, recorded in CHANGES.md with its
reason.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: Full seed-1 outcome digests, as ``perfbench/run.py`` prints them.
GOLDEN = {
    "mix": "9b38e7946d6ff2183f63a5318801634519b32972d810ae6686a9be93cc629575",
    "flood": "d2432f020718023d98935674f6012f520c5c26f7effb5e191dd0aecdb9fde570",
    "drift": "0c9c44e89e6da4736ffd7cd986cc6ec5317c8102e4c3168d174278642a482b06",
    "sharded": "fcedf85e3076c615dc5facc2f014f2a61f607a17a6709778b31050d33080397a",
}


@pytest.fixture(scope="module")
def perfbench_workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seed_one_outcome_digest_is_pinned(perfbench_workloads, name):
    workload = perfbench_workloads.WORKLOADS[name]()
    workload.setup(1)
    assert workload.digest(workload.replay()) == GOLDEN[name]
