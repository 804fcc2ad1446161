"""Estimator base class and cloning, following sklearn conventions."""

from __future__ import annotations

import copy
import inspect

import numpy as np

from repro.errors import NotFittedError

__all__ = ["BaseEstimator", "clone", "check_xy", "check_fitted"]


class BaseEstimator:
    """Base for all classifiers: parameter introspection + validation.

    Subclasses must store every constructor argument as an attribute of
    the same name (the sklearn contract), which makes :func:`clone` and
    grid search generic.
    """

    #: True when a fit is a pure function of ``(type, get_params(), x, y)``
    #: for an int or None ``random_state``, and prediction never mutates the
    #: fitted state: refitting identical inputs may then keep the fitted
    #: instance (see :meth:`repro.sched.predictor.DevicePredictor.fit`).
    pure_fit = False

    def get_params(self) -> dict:
        """Constructor parameters as a dict."""
        sig = inspect.signature(type(self).__init__)
        return {
            name: getattr(self, name)
            for name in sig.parameters
            if name not in ("self", "args", "kwargs")
        }

    def set_params(self, **params) -> "BaseEstimator":
        """Update constructor parameters in place; unknown names raise."""
        valid = self.get_params()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"{type(self).__name__} has no parameter {name!r}; "
                    f"valid: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def fit(self, x: np.ndarray, y: np.ndarray) -> "BaseEstimator":
        raise NotImplementedError

    def predict(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def split_points(self, column: int) -> "np.ndarray | None":
        """Sorted unique thresholds the fitted model splits ``column`` at.

        None (the default) means the model exposes no such partition;
        tree models override it.
        """
        return None

    def score(self, x: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy on ``(x, y)``."""
        return float(np.mean(self.predict(x) == np.asarray(y)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params().items()))
        return f"{type(self).__name__}({params})"


def clone(estimator: BaseEstimator) -> BaseEstimator:
    """Fresh unfitted copy with the same parameters."""
    params = {k: copy.deepcopy(v) for k, v in estimator.get_params().items()}
    return type(estimator)(**params)


def check_xy(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Validate and normalize a training pair: finite float features and
    non-negative integer labels (returned as int64)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2:
        raise ValueError(f"x must be 2-D (n_samples, n_features), got {x.shape}")
    if y.ndim != 1:
        raise ValueError(f"y must be 1-D, got shape {y.shape}")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"x has {x.shape[0]} rows but y has {y.shape[0]}")
    if x.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")
    finite = np.isfinite(x)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise ValueError(f"x[{r}, {c}] = {x[r, c]} is not finite")
    if y.dtype.kind not in "biuf":
        raise ValueError(f"labels must be integers, got dtype {y.dtype}")
    labels = y.astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(labels) | (labels < 0) | (labels != np.round(labels)))
    if bad.size:
        raise ValueError(
            f"labels must be non-negative integers, got y[{bad[0]}] = {y[bad[0]]}"
        )
    return x, y.astype(np.int64)


def check_fitted(estimator: BaseEstimator, attr: str) -> None:
    """Raise :class:`NotFittedError` unless ``attr`` has been set by fit."""
    if getattr(estimator, attr, None) is None:
        raise NotFittedError(
            f"{type(estimator).__name__} must be fitted before use"
        )
