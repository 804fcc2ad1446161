"""Device predictors: a classifier over the §V-B features, per policy.

:class:`DevicePredictor` adapts any :mod:`repro.ml` estimator to the
scheduling problem: it trains on a :class:`~repro.sched.dataset.SchedulerDataset`
and answers "which device?" for a (model spec, batch, dGPU state) triple.
The default estimator is the paper's pick — a random forest (§V-A) — with
the Table I-winning hyperparameters.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.errors import SchedulerError
from repro.ml.base import BaseEstimator, clone
from repro.ml.forest import RandomForestClassifier
from repro.nn.builders import ModelSpec
from repro.sched.dataset import DEVICE_CLASSES, SchedulerDataset
from repro.sched.features import FEATURE_NAMES, encode_point
from repro.sched.policies import Policy

__all__ = ["DevicePredictor", "batch_interval", "default_estimator"]

#: Feature column the cell memo partitions at the estimator's split points.
_BATCH_COLUMN = FEATURE_NAMES.index("batch")


def batch_interval(cuts: "tuple[float, ...] | None", batch: int) -> int:
    """Memo key of ``batch`` under :meth:`DevicePredictor.batch_cuts`.

    The index of the interval ``(cuts[i-1], cuts[i]]`` holding the
    encoded (float) batch: a tree goes left iff ``x <= threshold``, so
    every batch of one interval takes the same path through every tree.
    Without cuts the batch itself is the key.  A non-positive batch is
    rejected: it would otherwise share the first interval's key.
    """
    if batch <= 0:
        raise ValueError(f"batch must be positive, got {batch}")
    return bisect_left(cuts, float(batch)) if cuts is not None else int(batch)


def default_estimator(random_state: int = 7) -> BaseEstimator:
    """The paper's production configuration: a tuned random forest."""
    return RandomForestClassifier(
        n_estimators=50,
        criterion="entropy",
        max_depth=10,
        min_samples_leaf=1,
        random_state=random_state,
    )


class DevicePredictor:
    """A trained device-selection model for one policy."""

    #: Per-cell memo bound, FIFO.  A tree estimator's cells are batch
    #: intervals, a few dozen per model; it binds only for estimators
    #: without split points, whose cells are raw batch sizes.
    _CELL_CACHE_MAX = 16384
    #: Rows per priming forest call: bounds the forest's temporary arrays.
    _PRIME_BLOCK = 1024

    def __init__(self, policy: "Policy | str", estimator: BaseEstimator | None = None):
        self.policy = Policy.parse(policy)
        self.estimator = estimator if estimator is not None else default_estimator()
        self._fitted = False
        # (model, batch interval, gpu_state) -> (proba, class order)
        self._cells: "dict[tuple, tuple]" = {}
        # (fit generation, batch cuts) the memo keys are derived from.
        self._cuts: "tuple[int, tuple | None]" = (-1, None)
        #: Bumped on every (re)fit; decision caches key their validity on it.
        self.fit_generation = 0
        #: Fits that kept the fitted estimator (see :meth:`fit`).
        self.n_fit_reuses = 0
        # (fitted estimator, its params, copies of x and y) of the last fit
        # that a later fit on identical inputs may keep; None otherwise.
        self._last_fit: "tuple | None" = None

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` (or a persistence load) has trained it."""
        return self._fitted

    def fit(self, dataset: SchedulerDataset) -> "DevicePredictor":
        """Train on a labelled sweep; the dataset's policy must match.

        A fit on the inputs of the last one keeps the fitted estimator and
        its cell memo: for a ``pure_fit`` estimator whose params are all
        plain scalars (so ``random_state`` is an int or None, never a
        ``Generator``), a fresh clone would rebuild the same model bit for
        bit.  The generation is bumped either way.
        """
        if dataset.policy is not self.policy:
            raise SchedulerError(
                f"dataset labelled for policy {dataset.policy}, "
                f"predictor is for {self.policy}"
            )
        x, y = np.asarray(dataset.x), np.asarray(dataset.y)
        params = self.estimator.get_params()
        reusable = getattr(self.estimator, "pure_fit", False) and all(
            v is None or isinstance(v, (bool, int, float, str))
            for v in params.values()
        )
        last = self._last_fit
        if (
            reusable
            and last is not None
            and last[0] is self.estimator
            and last[1] == params
            and _same_bytes(last[2], x)
            and _same_bytes(last[3], y)
        ):
            self.n_fit_reuses += 1
        else:
            self.estimator = clone(self.estimator)
            self.estimator.fit(x, y)
            self._cells.clear()
            self._last_fit = (
                (self.estimator, params, x.copy(), y.copy()) if reusable else None
            )
        self._fitted = True
        self.fit_generation += 1
        return self

    # -- memoized per-cell probabilities -----------------------------------

    def batch_cuts(self) -> "tuple[float, ...] | None":
        """Sorted thresholds the estimator splits the batch column at, or
        None when it exposes none (see :func:`batch_interval`).  Read once
        per fit generation, so a loaded predictor that never ran
        :meth:`fit` takes them from its estimator too."""
        generation, cuts = self._cuts
        if generation != self.fit_generation:
            self._require_fitted()
            points = self.estimator.split_points(_BATCH_COLUMN)
            cuts = tuple(points.tolist()) if points is not None else None
            self._cuts = (self.fit_generation, cuts)
        return cuts

    def cell(self, spec: ModelSpec, batch: int, gpu_state: str) -> "tuple | None":
        """``(class probabilities, class order)`` for one (model, batch,
        dGPU-state) cell — fixed per fit and per batch interval, so scored
        once, then a dict hit.  None when the estimator has no
        ``predict_proba``."""
        key = (spec.name, batch_interval(self.batch_cuts(), batch), gpu_state)
        cell = self._cells.get(key)
        if cell is None and self.prime_cells(((spec, batch, gpu_state),)):
            cell = self._cells[key]
        return cell

    def prime_cells(self, cells) -> int:
        """Score the missing ``(spec, batch, gpu_state)`` cells — one row
        per batch interval — in one forest call per ``_PRIME_BLOCK`` rows
        and at most ``_CELL_CACHE_MAX`` cells (a pass never evicts its own
        entries).  Each row of a call is scored independently, so a cell's
        bits never depend on its batch-mates."""
        self._require_fitted()
        if not hasattr(self.estimator, "predict_proba"):
            return 0
        cuts = self.batch_cuts()
        missing = {}
        for spec, batch, gpu_state in cells:
            key = (spec.name, batch_interval(cuts, batch), gpu_state)
            if key not in self._cells and key not in missing:
                missing[key] = encode_point(spec, batch, gpu_state)
                if len(missing) == self._CELL_CACHE_MAX:
                    break
        if missing:
            rows = np.vstack(list(missing.values()))
            probas = np.concatenate([
                self.estimator.predict_proba(rows[i:i + self._PRIME_BLOCK])
                for i in range(0, len(rows), self._PRIME_BLOCK)
            ])
            for key, proba in zip(missing, probas):
                if len(self._cells) >= self._CELL_CACHE_MAX:
                    self._cells.pop(next(iter(self._cells)))   # FIFO
                # The reversed default-kind argsort the ranking always used,
                # so tied classes keep their order.
                ranked = np.argsort(proba)[::-1].tolist()
                order = tuple(
                    DEVICE_CLASSES[i] for i in ranked if i < len(DEVICE_CLASSES)
                )
                self._cells[key] = (proba, order)
        return len(missing)

    def predict_index(self, spec: ModelSpec, batch: int, gpu_state: str) -> int:
        """Class index (0=CPU, 1=dGPU, 2=iGPU) for one decision."""
        cell = self.cell(spec, batch, gpu_state)
        if cell is not None:
            return int(np.argmax(cell[0]))
        features = encode_point(spec, batch, gpu_state)[None, :]
        return int(self.estimator.predict(features)[0])

    def predict_device(self, spec: ModelSpec, batch: int, gpu_state: str) -> str:
        """Device-class value ('cpu' / 'dgpu' / 'igpu') for one decision."""
        return DEVICE_CLASSES[self.predict_index(spec, batch, gpu_state)]

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        """Vectorized prediction over a prepared feature matrix."""
        self._require_fitted()
        return self.estimator.predict(np.asarray(x, dtype=np.float64))

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise SchedulerError("DevicePredictor used before fit()")


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Same dtype, shape and bytes: a stricter test than ``array_equal``."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
