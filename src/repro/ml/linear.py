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

import math
from typing import Optional

import numpy as np

__all__ = ["LogisticRegression"]


def _sigmoid(
    z: np.ndarray,
    out: Optional[np.ndarray] = None,
    work: Optional[np.ndarray] = None,
    nonneg: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Numerically stable logistic function of a float64 vector.

    One ``e = exp(min(z, -z))`` (that is ``exp(-|z|)``, with a NaN kept as
    it is) serves both halves: ``1 / (1 + e)`` where ``z >= 0`` and
    ``e / (1 + e)`` elsewhere.  These are the same IEEE operations on the same
    operands as evaluating each half on its own boolean mask, so the result is
    bit-identical to that, without the gathers and scatters.

    ``out`` and ``work`` (float64) and ``nonneg`` (bool), all shaped like
    ``z``, are overwritten when given, so a training loop allocates nothing
    per step; the result is ``out``.
    """
    if out is None:
        out, work = np.empty_like(z, dtype=float), np.empty_like(z, dtype=float)
        nonneg = np.empty(z.shape, dtype=bool)
    e = np.minimum(z, np.negative(z, out=out), out=out)
    np.exp(e, out=e)
    one_plus_e = np.add(e, 1.0, out=work)
    np.divide(e, one_plus_e, out=out)
    np.divide(1.0, one_plus_e, out=work)
    np.copyto(out, work, where=np.greater_equal(z, 0.0, out=nonneg))
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
        # Every step writes into these buffers: z, p (then p - y), the
        # sigmoid's work buffers, the weight gradient and a d-length product.
        z, p, work = np.empty(n), np.empty(n), np.empty(n)
        nonneg = np.empty(n, dtype=bool)
        grad_w, scaled = np.empty(d), np.empty(d)
        X_t = X.T  # a view: a contiguous copy would sum in another BLAS order
        for _ in range(self.max_iter):
            np.matmul(X, weights, out=z)
            z += intercept
            error = np.subtract(_sigmoid(z, p, work, nonneg), y01, out=p)
            # grad_w = X.T @ error / n + reg_param * weights
            np.matmul(X_t, error, out=grad_w)
            grad_w /= n
            grad_w += np.multiply(weights, self.reg_param, out=scaled)
            grad_b = float(error.sum()) / n if self.fit_intercept else 0.0
            weights -= np.multiply(grad_w, step, out=scaled)
            intercept -= step * grad_b
            self.n_iter_ += 1
            # norm(grad_w) < tol, with norm's own sqrt(g . g).
            if abs(grad_b) < self.tol and math.sqrt(grad_w.dot(grad_w)) < self.tol:
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
