"""Linear model: logistic regression trained with gradient descent.

This is the learner used by the Census, IE and MNIST workloads (the paper
uses MLlib's logistic regression; here the equivalent is implemented from
scratch on NumPy).  It follows the minimal estimator protocol the
:class:`~repro.core.operators.Learner` operator expects:

* ``fit(X, y)`` — train on a dense matrix and label vector,
* ``predict(X)`` — return predictions,
* ``predict_proba(X)`` — class probabilities,
* ``set_seed(seed)`` — reseed any internal randomness.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["LogisticRegression"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(z, dtype=float)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


class LogisticRegression:
    """Binary logistic regression with L2 regularization, trained by full-batch GD.

    Parameters
    ----------
    reg_param:
        L2 regularization strength (the paper's census example uses 0.1).
    learning_rate:
        Gradient-descent step size.
    max_iter:
        Maximum number of gradient steps.
    tol:
        Stop early when the gradient norm falls below this threshold.
    fit_intercept:
        Whether to fit an unregularized intercept term.
    """

    def __init__(
        self,
        reg_param: float = 0.1,
        learning_rate: float = 0.5,
        max_iter: int = 200,
        tol: float = 1e-6,
        fit_intercept: bool = True,
    ):
        if reg_param < 0:
            raise ValueError("reg_param must be non-negative")
        self.reg_param = reg_param
        self.learning_rate = learning_rate
        self.max_iter = max_iter
        self.tol = tol
        self.fit_intercept = fit_intercept
        self.weights_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0
        self.n_iter_: int = 0
        self.classes_: Optional[np.ndarray] = None
        self._seed = 0

    def set_seed(self, seed: int) -> None:
        self._seed = int(seed)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2:
            raise ValueError("X must be a 2-D matrix")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have mismatched lengths")
        self.classes_ = np.unique(y) if y.size else np.array([0.0, 1.0])
        # Map labels onto {0, 1}: anything above the midpoint of observed labels is positive.
        if self.classes_.size > 1:
            threshold = (self.classes_.min() + self.classes_.max()) / 2.0
            y01 = (y > threshold).astype(float)
        else:
            y01 = np.zeros_like(y)
        n, d = X.shape
        weights = np.zeros(d)
        intercept = 0.0
        self.n_iter_ = 0
        if n == 0:
            self.weights_, self.intercept_ = weights, intercept
            return self
        # Cap the step size by the loss's Lipschitz constant (0.25 * mean squared
        # row norm for the logistic term plus the regularization strength) so
        # full-batch gradient descent cannot diverge for large reg_param.
        lipschitz = 0.25 * float(np.mean(np.sum(X * X, axis=1))) + self.reg_param
        step = min(self.learning_rate, 1.0 / max(lipschitz, 1e-12))
        for _ in range(self.max_iter):
            z = X @ weights + intercept
            p = _sigmoid(z)
            error = p - y01
            grad_w = X.T @ error / n + self.reg_param * weights
            grad_b = float(error.mean()) if self.fit_intercept else 0.0
            weights -= step * grad_w
            intercept -= step * grad_b
            self.n_iter_ += 1
            if np.linalg.norm(grad_w) < self.tol and abs(grad_b) < self.tol:
                break
        self.weights_ = weights
        self.intercept_ = intercept
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if self.weights_ is None:
            raise ValueError("model is not fitted")
        X = np.asarray(X, dtype=float)
        return X @ self.weights_ + self.intercept_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p, p])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] >= 0.5).astype(float)
