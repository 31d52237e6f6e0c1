"""Multinomial naive Bayes classifier.

Provided as an alternative learner for the Census and IE workloads (an "L/I"
iteration in the paper can swap the learning algorithm entirely, e.g. from
logistic regression to naive Bayes) and as the data-dependent-transformation
example discussed in Section 3.1.1.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["MultinomialNaiveBayes"]


class MultinomialNaiveBayes:
    """Multinomial naive Bayes with Laplace smoothing over non-negative features."""

    def __init__(self, alpha: float = 1.0):
        if alpha <= 0:
            raise ValueError("smoothing parameter alpha must be positive")
        self.alpha = alpha
        self.class_log_prior_: Optional[np.ndarray] = None
        self.feature_log_prob_: Optional[np.ndarray] = None
        self.classes_: Optional[np.ndarray] = None

    def set_seed(self, seed: int) -> None:  # noqa: ARG002 - deterministic model
        return

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MultinomialNaiveBayes":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have mismatched lengths")
        if np.any(X < 0):
            X = np.clip(X, 0.0, None)
        self.classes_ = np.unique(y) if y.size else np.array([0.0, 1.0])
        n_classes = len(self.classes_)
        n_features = X.shape[1]
        counts = np.zeros((n_classes, n_features))
        class_counts = np.zeros(n_classes)
        for index, label in enumerate(self.classes_):
            mask = y == label
            class_counts[index] = mask.sum()
            if mask.any():
                counts[index] = X[mask].sum(axis=0)
        smoothed = counts + self.alpha
        totals = smoothed.sum(axis=1, keepdims=True)
        self.feature_log_prob_ = np.log(smoothed) - np.log(totals)
        priors = (class_counts + self.alpha) / (class_counts.sum() + self.alpha * n_classes)
        self.class_log_prior_ = np.log(priors)
        return self

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        if self.feature_log_prob_ is None or self.class_log_prior_ is None:
            raise ValueError("model is not fitted")
        X = np.clip(np.asarray(X, dtype=float), 0.0, None)
        return X @ self.feature_log_prob_.T + self.class_log_prior_

    def predict(self, X: np.ndarray) -> np.ndarray:
        jll = self._joint_log_likelihood(X)
        if jll.shape[0] == 0:
            return np.zeros(0)
        return self.classes_[np.argmax(jll, axis=1)]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        jll = self._joint_log_likelihood(X)
        jll = jll - jll.max(axis=1, keepdims=True)
        probabilities = np.exp(jll)
        return probabilities / probabilities.sum(axis=1, keepdims=True)
