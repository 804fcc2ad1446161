"""The lockstep grower against the recursive reference, bit for bit.

``repro.ml.tree._grow`` grows every tree of a forest in one batched pass;
``tests/ml/tree_reference.py`` grows one node at a time.  Both must give
the same arenas, the same ``_importance_raw`` and leave every generator
in the same state.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import tree as tree_module
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.sched.dataset import generate_dataset
from tests.ml.tree_reference import reference_fit_forest, reference_fit_tree

FLAT_ARRAYS = ("feature", "threshold", "left", "right", "proba")


def assert_same_arena(a, b):
    for name in FLAT_ARRAYS + ("roots",):
        u, v = getattr(a, name), getattr(b, name)
        assert u.dtype == v.dtype and u.shape == v.shape, name
        assert u.tobytes() == v.tobytes(), name
    assert (a.n_features, a.max_depth) == (b.n_features, b.max_depth)


def assert_same_tree(got, want):
    assert_same_arena(got.arena_, want.arena_)
    assert got._importance_raw.tobytes() == want._importance_raw.tobytes()


def assert_same_forest(got, want):
    assert got.n_classes_ == want.n_classes_
    assert len(got.trees_) == len(want.trees_)
    # The joined arena against the reference's graphs flattened together.
    assert_same_arena(got.arena_, want.arena_)
    for a, b in zip(got.trees_, want.trees_):
        assert_same_tree(a, b)
        # Each tree keeps its spawned generator: equal states mean equal
        # bootstrap and feature draws, padded regrowths included.
        assert a.random_state.bit_generator.state == b.random_state.bit_generator.state


def forest_pair(x, y, **params):
    got = RandomForestClassifier(**params).fit(x, y)
    want = reference_fit_forest(RandomForestClassifier(**params), x, y)
    assert_same_forest(got, want)
    return got


def tree_pair(x, y, seed, **params):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = DecisionTreeClassifier(random_state=got_rng, **params).fit(x, y)
    want = DecisionTreeClassifier(random_state=want_rng, **params)
    reference_fit_tree(want, x, y)
    assert_same_tree(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    return got


@st.composite
def datasets(draw):
    """Small datasets with ties, duplicate rows and rare classes."""
    n = draw(st.integers(2, 40))
    n_features = draw(st.integers(1, 5))
    n_classes = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # Few distinct values per column: many ties; a repeated block of rows.
    levels = draw(st.integers(1, 6))
    x = rng.integers(0, levels, size=(n, n_features)).astype(np.float64)
    if draw(st.booleans()):
        x = x * draw(st.sampled_from([0.1, 1e-3, 7.0, -2.5]))
    dup = draw(st.integers(0, n // 2))
    x[n - dup:] = x[:dup]
    # The top class is rare, so many bootstraps miss it.
    y = rng.integers(0, n_classes - 1, size=n)
    y[rng.integers(0, n)] = n_classes - 1
    return x, y


tree_params = st.fixed_dictionaries({
    "criterion": st.sampled_from(["gini", "entropy"]),
    "min_samples_leaf": st.integers(1, 4),
    "max_depth": st.sampled_from([None, 1, 2, 3, 4, 5, 6]),
})
max_features = st.one_of(st.sampled_from(["sqrt", None]), st.integers(1, 5))


class TestMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(data=datasets(), params=tree_params, mf=max_features,
           bootstrap=st.booleans(), n_estimators=st.integers(1, 6),
           seed=st.integers(0, 1000))
    def test_forest(self, data, params, mf, bootstrap, n_estimators, seed):
        x, y = data
        forest_pair(x, y, max_features=min(mf, x.shape[1]) if isinstance(mf, int) else mf,
                    bootstrap=bootstrap, n_estimators=n_estimators,
                    random_state=seed, **params)

    @settings(max_examples=60, deadline=None)
    @given(data=datasets(), params=tree_params, mf=max_features,
           seed=st.integers(0, 1000))
    def test_tree(self, data, params, mf, seed):
        x, y = data
        tree_pair(x, y, seed,
                  max_features=min(mf, x.shape[1]) if isinstance(mf, int) else mf,
                  **params)

    def test_missed_top_class_is_regrown_padded(self):
        """Bootstraps that miss a rare top class: the reference grows them
        once at their own width and again padded."""
        rng = np.random.default_rng(0)
        x = rng.integers(0, 4, size=(30, 3)).astype(np.float64)
        y = rng.integers(0, 2, size=30)
        y[5] = 2
        forest = forest_pair(x, y, n_estimators=20, random_state=1)
        assert all(t.n_classes_ == 3 for t in forest.trees_)
        # A padded root holds the one synthetic top-class sample of 31.
        assert any(t.arena_.proba[0, 2] == 1 / 31 for t in forest.trees_)

    def test_no_features_grows_single_leaves(self):
        x, y = np.zeros((4, 0)), np.array([0, 1, 0, 1])
        assert tree_pair(x, y, 0).n_leaves_ == 1
        forest_pair(x, y, n_estimators=3, random_state=0)

    def test_benchmark_dataset(self):
        ds = generate_dataset("throughput", specs=[SIMPLE, MNIST_SMALL],
                              batches=(1, 64, 1024, 16384, 262144))
        forest_pair(ds.x, ds.y, n_estimators=50, criterion="entropy",
                    max_depth=10, random_state=7)

    def test_table2_dataset(self):
        ds = generate_dataset("throughput")
        assert ds.x.shape[0] == 1470
        forest_pair(ds.x, ds.y, n_estimators=8, criterion="entropy",
                    max_depth=10, random_state=7)
        tree_pair(ds.x, ds.y, 0, criterion="entropy", max_depth=10)

    def test_blocks_smaller_than_a_node(self, monkeypatch):
        """A step split into many blocks, most holding a single node."""
        monkeypatch.setattr(tree_module, "_STEP_ROWS", 16)
        rng = np.random.default_rng(3)
        x = rng.integers(0, 6, size=(120, 4)).astype(np.float64)
        y = rng.integers(0, 3, size=120)
        forest_pair(x, y, n_estimators=10, random_state=2)
        tree_pair(x, y, 4, criterion="entropy", max_features=2)


def test_table2_forest_fit_memory_stays_bounded():
    """The step blocks bound the grower's temporaries: with no block cap,
    Table II's forest fit peaks above 20 MB; blocked it reads ~5 MB, and
    the one-tree-at-a-time reference ~2.5 MB."""
    ds = generate_dataset("throughput")
    forest = RandomForestClassifier(n_estimators=50, criterion="entropy",
                                    max_depth=10, random_state=7)
    tracemalloc.start()
    try:
        forest.fit(ds.x, ds.y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8e6, f"forest fit peaked at {peak / 1e6:.1f} MB"


class TestThresholdRounding:
    """A midpoint that rounds onto the upper value (or overflows) must not
    send every row left: the split falls back to the lower value."""

    @pytest.mark.parametrize("lo, hi", [
        (1e-300, np.nextafter(1e-300, 1.0)),
        (1e308, 1.7e308),
        (-1.7e308, -1e308),
    ])
    def test_adjacent_or_huge_values_split(self, lo, hi):
        x = np.array([[lo], [hi]])
        y = np.array([0, 1])
        tree = DecisionTreeClassifier().fit(x, y)
        assert tree.n_leaves_ == 2
        assert lo <= tree.arena_.threshold[0] < hi
        assert tree.predict(x).tolist() == [0, 1]
        forest = RandomForestClassifier(n_estimators=3, bootstrap=False,
                                        random_state=0).fit(x, y)
        assert forest.predict(x).tolist() == [0, 1]

    def test_subnormal_pair_leaves_no_empty_leaf(self):
        x = np.array([[5e-324], [1e-323]])
        y = np.array([0, 1])
        tree = DecisionTreeClassifier(max_depth=5).fit(x, y)
        proba = tree.arena_.proba
        assert np.isfinite(proba).all()
        assert tree.n_leaves_ == 2
        assert tree.predict(x).tolist() == [0, 1]
