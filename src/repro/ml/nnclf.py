"""Feed-forward network classifier (Table II's FFNN row).

A thin estimator adapter over the :mod:`repro.nn` training substrate — the
same layers the workload models use, here as a scheduler predictor.  The
paper found this model underwhelming for the scheduling problem (52.62%);
small tabular datasets with ~8 structural features are simply not where
multilayer perceptrons shine.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_fitted, check_xy
from repro.nn.builders import FFNNSpec, build_model
from repro.nn.train import TrainConfig, train_model
from repro.rng import ensure_rng

__all__ = ["MLPClassifier"]


class MLPClassifier(BaseEstimator):
    """MLP with relu hidden layers trained by SGD + momentum."""

    def __init__(
        self,
        hidden_layers: tuple[int, ...] = (32, 32),
        epochs: int = 50,
        batch_size: int = 32,
        lr: float = 0.01,
        momentum: float = 0.9,
        random_state: "int | np.random.Generator | None" = None,
    ):
        self.hidden_layers = tuple(hidden_layers)
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.momentum = momentum
        self.random_state = random_state
        self.model_ = None
        self.n_classes_: int = 0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "MLPClassifier":
        x, y = check_xy(x, y)
        self.n_classes_ = int(y.max()) + 1
        rng = ensure_rng(self.random_state)
        spec = FFNNSpec(
            name="mlp-classifier",
            input_shape=(x.shape[1],),
            n_classes=max(self.n_classes_, 2),
            hidden_layers=self.hidden_layers,
        )
        self.model_ = build_model(spec, rng=rng)
        cfg = TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            momentum=self.momentum,
        )
        train_model(self.model_, x.astype(np.float32), y, cfg, rng=rng)
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, "model_")
        return self.model_.predict_proba(np.asarray(x, dtype=np.float32))

    def predict(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, "model_")
        return self.model_.predict(np.asarray(x, dtype=np.float32))
