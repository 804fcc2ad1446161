"""Decision-tree text export."""

import numpy as np
import pytest

from repro.errors import NotFittedError
from repro.ml.tree import DecisionTreeClassifier


@pytest.fixture()
def fitted(rng):
    x = rng.standard_normal((100, 2))
    y = (x[:, 0] > 0.5).astype(int)
    return DecisionTreeClassifier(max_depth=2).fit(x, y)


class TestExportText:
    def test_contains_split_and_leaves(self, fitted):
        text = fitted.export_text()
        assert "x[0] <=" in text
        assert "class:" in text

    def test_custom_names(self, fitted):
        text = fitted.export_text(
            feature_names=["batch", "gpu_warm"], class_names=["cpu", "dgpu"]
        )
        assert "batch <=" in text
        assert "class: cpu" in text or "class: dgpu" in text

    def test_too_few_names(self, fitted):
        with pytest.raises(ValueError):
            fitted.export_text(feature_names=["only-one"])

    def test_unfitted(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().export_text()

    def test_depth_indentation(self, fitted):
        lines = fitted.export_text().splitlines()
        assert any(line.startswith("|   ") for line in lines)

    def test_pure_tree_single_leaf(self, rng):
        x = rng.standard_normal((10, 2))
        tree = DecisionTreeClassifier().fit(x, np.zeros(10, dtype=int))
        text = tree.export_text(class_names=["only"])
        assert text.strip().startswith("|-- class: only")

    def test_scheduler_tree_readable(self, small_throughput_dataset):
        """The interpretable single tree over real scheduler features."""
        from repro.sched.features import FEATURE_NAMES

        tree = DecisionTreeClassifier(max_depth=3).fit(
            small_throughput_dataset.x, small_throughput_dataset.y
        )
        text = tree.export_text(
            feature_names=list(FEATURE_NAMES),
            class_names=["cpu", "dgpu", "igpu"],
        )
        assert "batch" in text  # the dominant split feature shows up


def test_small_tree_text_is_pinned():
    """The arena walk prints what the node-graph walk printed."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 3))
    y = ((x[:, 0] > 0).astype(int) + (x[:, 1] > 0.5)).astype(int)
    tree = DecisionTreeClassifier(max_depth=3, random_state=0).fit(x, y)
    text = tree.export_text(feature_names=["a", "b", "c"],
                            class_names=["lo", "mid", "hi"])
    assert text == "\n".join([
        "|-- a <= -0.375179",
        "|   |-- b <= 0.448902",
        "|   |   |-- class: lo  [1.00, 0.00, 0.00]",
        "|   |-- b >  0.448902",
        "|   |   |-- class: mid  [0.00, 1.00, 0.00]",
        "|-- a >  -0.375179",
        "|   |-- b <= 0.497985",
        "|   |   |-- a <= -0.0296972",
        "|   |   |   |-- class: lo  [1.00, 0.00, 0.00]",
        "|   |   |-- a >  -0.0296972",
        "|   |   |   |-- class: mid  [0.00, 1.00, 0.00]",
        "|   |-- b >  0.497985",
        "|   |   |-- a <= -0.119167",
        "|   |   |   |-- class: mid  [0.00, 1.00, 0.00]",
        "|   |   |-- a >  -0.119167",
        "|   |   |   |-- class: hi  [0.00, 0.00, 1.00]",
    ])
