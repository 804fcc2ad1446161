"""The four perfbench workloads replay to pinned outcome digests at seed 1.

Each digest is the SHA-256 over every request's canonical outcome row
(status, node, device, completion time, shed reason), so a one-bit change
to any seed-1 outcome of mix, flood, drift or sharded fails here.  The
seed-1 *input* digests (perfbench's ``trace_digest`` over every request's
id, arrival, model, batch and deadline) are pinned beside them, so a
change to how traces are built that moves a request fails on the input
itself, not only through the outcome it leads to.  The
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
from typing import NamedTuple

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class Pins(NamedTuple):
    """Full seed-1 digests: ``inputs`` from ``trace_digest`` in
    ``perfbench/run.py``, ``outcome`` as ``perfbench/run.py`` prints it."""

    inputs: str
    outcome: str


# sharded replays the mix trace, so their inputs agree.
GOLDEN = {
    "mix": Pins(
        "768f1c06ec1b40f10b3dfa62e1a7358b0c4c87f53d6eb98e31c2dd9905e3f8ad",
        "9b38e7946d6ff2183f63a5318801634519b32972d810ae6686a9be93cc629575",
    ),
    "flood": Pins(
        "36612f6134cf0d7098d9d42828c0c0141a20389bd0dbd913b14b4644bdb14aa0",
        "d2432f020718023d98935674f6012f520c5c26f7effb5e191dd0aecdb9fde570",
    ),
    "drift": Pins(
        "19cb885b05c0749aafac4f9e8261aeadffadb74d2a374570d4d7d2cdfe8a658b",
        "0c9c44e89e6da4736ffd7cd986cc6ec5317c8102e4c3168d174278642a482b06",
    ),
    "sharded": Pins(
        "768f1c06ec1b40f10b3dfa62e1a7358b0c4c87f53d6eb98e31c2dd9905e3f8ad",
        "fcedf85e3076c615dc5facc2f014f2a61f607a17a6709778b31050d33080397a",
    ),
}


def _import_perfbench(module: str):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def perfbench_workloads():
    return _import_perfbench("workloads")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seed_one_input_digest_is_pinned(perfbench_workloads, name):
    workload = perfbench_workloads.WORKLOADS[name]()
    workload.setup(1)
    trace_digest = _import_perfbench("run").trace_digest
    assert trace_digest(workload.trace) == GOLDEN[name].inputs


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seed_one_outcome_digest_is_pinned(perfbench_workloads, name):
    workload = perfbench_workloads.WORKLOADS[name]()
    workload.setup(1)
    assert workload.digest(workload.replay()) == GOLDEN[name].outcome
