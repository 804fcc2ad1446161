"""Linear models: least-squares classification and logistic regression.

Table II lists a "Linear Regression" predictor: a least-squares fit used
as a classifier.  :class:`LinearRegressionClassifier` is that model —
one-hot least squares solved in closed form (scale-robust, hence its
decent 77.94% in the paper despite raw features), predictions by argmax
over the fitted targets.  :class:`LogisticRegression` is the proper
maximum-likelihood linear classifier, provided for completeness and used
in the scaling ablation.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_fitted, check_xy
from repro.nn.activations import softmax

__all__ = ["LinearRegressionClassifier", "LogisticRegression"]


class LinearRegressionClassifier(BaseEstimator):
    """One-hot least squares as a classifier (the paper's Table II row).

    Fits ``W`` minimizing ``||X W - onehot(y)||^2`` via ``lstsq`` (closed
    form — no learning rate, so raw-scale features are handled exactly),
    then predicts ``argmax(X W)``.
    """

    def __init__(self, l2: float = 1e-8):
        if l2 < 0.0:
            raise ValueError(f"l2 must be >= 0, got {l2}")
        self.l2 = l2
        self.coef_: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LinearRegressionClassifier":
        x, y = check_xy(x, y)
        n, d = x.shape
        k = int(y.max()) + 1
        xb = np.hstack([x, np.ones((n, 1))])
        onehot = np.zeros((n, k))
        onehot[np.arange(n), y] = 1.0
        # Ridge-regularized normal equations keep lstsq well-posed even
        # with duplicated feature rows.
        gram = xb.T @ xb + self.l2 * np.eye(d + 1)
        self.coef_ = np.linalg.solve(gram, xb.T @ onehot)
        return self

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, "coef_")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.coef_.shape[0] - 1:
            raise ValueError(
                f"expected (n, {self.coef_.shape[0] - 1}) input, got shape {x.shape}"
            )
        xb = np.hstack([x, np.ones((x.shape[0], 1))])
        return xb @ self.coef_

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.decision_function(x), axis=1)


class LogisticRegression(BaseEstimator):
    """Softmax regression trained by batch gradient descent."""

    def __init__(
        self,
        lr: float = 0.1,
        max_iter: int = 500,
        l2: float = 1e-4,
        tol: float = 1e-6,
    ):
        if lr <= 0.0 or max_iter < 1 or l2 < 0.0 or tol < 0.0:
            raise ValueError("bad hyperparameters for LogisticRegression")
        self.lr = lr
        self.max_iter = max_iter
        self.l2 = l2
        self.tol = tol
        self.coef_: np.ndarray | None = None
        self.intercept_: np.ndarray | None = None
        self.n_iter_: int = 0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        x, y = check_xy(x, y)
        n, d = x.shape
        k = int(y.max()) + 1
        w = np.zeros((d, k))
        b = np.zeros(k)
        onehot = np.zeros((n, k))
        onehot[np.arange(n), y] = 1.0
        prev_loss = np.inf
        for i in range(self.max_iter):
            p = softmax(x @ w + b)
            grad_logits = (p - onehot) / n
            gw = x.T @ grad_logits + self.l2 * w
            gb = grad_logits.sum(axis=0)
            w -= self.lr * gw
            b -= self.lr * gb
            loss = float(
                -np.mean(np.log(np.clip(p[np.arange(n), y], 1e-12, None)))
                + 0.5 * self.l2 * np.sum(w * w)
            )
            if abs(prev_loss - loss) < self.tol:
                self.n_iter_ = i + 1
                break
            prev_loss = loss
        else:
            self.n_iter_ = self.max_iter
        self.coef_ = w
        self.intercept_ = b
        return self

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, "coef_")
        x = np.asarray(x, dtype=np.float64)
        return x @ self.coef_ + self.intercept_

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return softmax(self.decision_function(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.decision_function(x), axis=1)
