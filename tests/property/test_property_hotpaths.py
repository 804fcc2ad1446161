"""Property tests for the perf-pass hot paths.

Two claims are load-bearing enough to fuzz:

* the arena tree/forest inference is *bit-identical* to the node-by-node
  reference walk on arbitrary fitted models — the scheduler's device choice
  (an argmax over these probabilities) must never flip because of the
  fast path;
* the P² streaming p99 stays within a few percent of the exact
  :func:`np.percentile` even on adversarial sample orders (sorted,
  constant, heavy-tailed, bimodal), since autoscaler and SLO decisions
  read it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from repro.telemetry.streaming import P2Quantile
from tests.placement_oracle import forest_proba_recursive, tree_proba_recursive


def _random_classification(seed: int, n: int, d: int, classes: int):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = (x[:, 0] * 3 + x[:, 1] + rng.normal(scale=0.3, size=n) > 0).astype(int)
    if classes > 2:
        y += (x[:, d - 1] > 0.5).astype(int)
    return x, y


class TestFlatEquivalence:
    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(12, 80),
        d=st.integers(2, 6),
        depth=st.integers(1, 8),
        batch=st.integers(1, 50),
    )
    def test_tree_flat_equals_recursive(self, seed, n, d, depth, batch):
        x, y = _random_classification(seed, n, d, classes=2)
        tree = DecisionTreeClassifier(max_depth=depth, random_state=seed).fit(x, y)
        xq = np.random.default_rng(seed + 1).normal(size=(batch, d))
        assert np.array_equal(
            tree.predict_proba(xq), tree_proba_recursive(tree, xq)
        )

    @settings(deadline=None, max_examples=15)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(20, 60),
        trees=st.integers(1, 12),
        batch=st.integers(1, 40),
    )
    def test_forest_flat_equals_recursive(self, seed, n, trees, batch):
        x, y = _random_classification(seed, n, 4, classes=3)
        forest = RandomForestClassifier(
            n_estimators=trees, max_depth=6, random_state=seed
        ).fit(x, y)
        xq = np.random.default_rng(seed + 1).normal(size=(batch, 4))
        assert np.array_equal(
            forest.predict_proba(xq), forest_proba_recursive(forest, xq)
        )
        assert np.array_equal(
            forest.predict(xq),
            np.argmax(forest_proba_recursive(forest, xq), axis=1),
        )


def _adversarial(name: str, rng: np.random.Generator, n: int) -> np.ndarray:
    if name == "sorted":
        return np.sort(rng.exponential(1.0, n))
    if name == "constant":
        return np.full(n, float(rng.uniform(0.1, 10.0)))
    if name == "heavy-tail":
        return rng.lognormal(0.0, 1.5, n)
    if name == "bimodal":
        half = n // 2
        return np.concatenate(
            [rng.normal(1.0, 0.1, half), rng.normal(100.0, 5.0, n - half)]
        )
    return rng.uniform(0.0, 1.0, n)


class TestStreamingQuantiles:
    @settings(deadline=None, max_examples=30)
    @given(
        name=st.sampled_from(
            ["uniform", "sorted", "constant", "heavy-tail", "bimodal"]
        ),
        seed=st.integers(0, 1000),
        n=st.integers(2000, 8000),
    )
    def test_p99_within_tolerance_of_exact(self, name, seed, n):
        xs = _adversarial(name, np.random.default_rng(seed), n)
        est = P2Quantile(99.0)
        est.extend(xs)
        exact = float(np.percentile(xs, 99.0))
        spread = float(xs.max() - xs.min())
        # Within 20% relative error or 10% of the full data spread: on a
        # heavy tail the *sample* p99 is itself noisy at these sizes, so
        # the relative clause alone would test sampling noise, not P2.
        assert abs(est.estimate() - exact) <= max(
            0.20 * abs(exact), 0.10 * spread, 1e-12
        )

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 1000), n=st.integers(1, 4))
    def test_exact_under_five_samples(self, seed, n):
        xs = np.random.default_rng(seed).uniform(0.0, 1.0, n)
        est = P2Quantile(50.0)
        est.extend(xs)
        assert est.estimate() == float(np.percentile(xs, 50.0))
