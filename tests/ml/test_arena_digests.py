"""Arenas pinned byte for byte: the grower writes each tree's arrays in
the preorder, dtypes and bytes that flattening its node graph gave.

The SHA-256 of every arena array's bytes (and of the int64 roots), with
the depth and node count, for three fits:

* ``train_predictor``: the forest perfbench fits in every workload's
  set-up (``perfbench/workloads.py``, imported as the benchmark imports
  it) and refits online in drift;
* ``wallclock_forest``: the 50-tree entropy forest of the wall-clock
  harness's ``forest`` section (``benchmarks/wallclock/run.py``);
* ``table2_tree``: one entropy tree on Table II's throughput dataset.

Changing a pin is an explicit edit, recorded in CHANGES.md with its reason.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from tests.test_golden_digests import _import_perfbench

ARRAYS = ("feature", "threshold", "left", "right", "proba")
DTYPES = {"feature": np.int32, "threshold": np.float64, "left": np.int32,
          "right": np.int32, "proba": np.float64}


class Pin(NamedTuple):
    max_depth: int
    n_nodes: int
    n_trees: int
    sha256: dict


PINS = {
    "train_predictor": Pin(
        max_depth=4, n_nodes=282, n_trees=50,
        sha256={
            "feature": "7c7d2fc4256cd820ead6428e3cb10a0a0de23f457468619b67ed264648372957",
            "threshold": "7872144ba4a87f2b975389e02c7a4efa64094b371f58fa9c327ee5872242cd4b",
            "left": "0d3174285928a7939382b602dd96f6b2bb6d0e7ad491eede833475e63416e716",
            "right": "c84d63329b87076e0cc0a7231f4a4fdbdb711330c06005d60a996383331789ec",
            "proba": "878cd743dc6ad5faf82c1821f3ae3ed091e46fe05f9e638ce19bbdb9f4c96216",
            "roots": "292d793fdb54b12079001faa3795acc6eaffad798b12ee02bc5dc08ce444ab52",
        },
    ),
    "wallclock_forest": Pin(
        max_depth=10, n_nodes=5184, n_trees=50,
        sha256={
            "feature": "92410786231525d431fe69e3a6a96b8a1b1be82f26c5097b4ab2b03545e166f2",
            "threshold": "ef887b88a451ab3868e9504129a7c98a0126b4d1032a818ad81b1b684239e981",
            "left": "b79eba25435ba92433a3e158934df845aaaa9f4a7e78c17bbbcafa7dbdff0561",
            "right": "e55353b368eba68ad8358e161f3f086134b16026c15da1da66d93f39cad01f2c",
            "proba": "fc24c1a3ab2ddf1e5b82bdf64d48c9cecdb3e8c2b77f69c508bb79b2b171a40b",
            "roots": "3d15b826dbc545f1c36a0c1ad6a6bf5f03587073c369d07faff7fab7e484beab",
        },
    ),
    "table2_tree": Pin(
        max_depth=10, n_nodes=185, n_trees=1,
        sha256={
            "feature": "c8f2f2011452b17b97e548be46d389ef0f0237a22d644ca854df1b32330bbdc2",
            "threshold": "5831717954f92dd71d41d8fa19b55221d59683d1f089c14cc176fa4729c4389b",
            "left": "586e9db70e2d137a894d806b9c53bb471fe4edbfecb2a50eb905f244245ff0d2",
            "right": "0eab7d3cb01bc28737ccf92be0457118d9e7663c70a0045914d9a7d009f62d5b",
            "proba": "d9f9dae4fa6f05d00e11f7579d67360f1dd140ce671a8425355de6dc0ec06293",
            "roots": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        },
    ),
}


def digests(arena) -> dict:
    out = {name: hashlib.sha256(getattr(arena, name).tobytes()).hexdigest()
           for name in ARRAYS}
    out["roots"] = hashlib.sha256(arena.roots.astype(np.int64).tobytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def arenas(throughput_dataset):
    _, predictor = _import_perfbench("workloads").train_predictor()
    forest = RandomForestClassifier(
        n_estimators=50, criterion="entropy", max_depth=10,
        min_samples_leaf=1, random_state=7,
    ).fit(throughput_dataset.x, throughput_dataset.y)
    tree = DecisionTreeClassifier(criterion="entropy", max_depth=10, random_state=0)
    tree.fit(throughput_dataset.x, throughput_dataset.y)
    return {
        "train_predictor": predictor.estimator.arena_,
        "wallclock_forest": forest.arena_,
        "table2_tree": tree.arena_,
    }


@pytest.mark.parametrize("name", sorted(PINS))
def test_arena_bytes_are_pinned(arenas, name):
    arena, pin = arenas[name], PINS[name]
    for array in ARRAYS:
        assert getattr(arena, array).dtype == DTYPES[array], array
    assert (arena.max_depth, arena.n_nodes, arena.n_trees) == pin[:3]
    assert digests(arena) == pin.sha256
