"""K-means clustering (Lloyd's algorithm with k-means++ initialization).

Used by the genomics workload to cluster gene embedding vectors (the paper's
second learning step in Example 1).  Implements the unsupervised estimator
protocol expected by :class:`~repro.core.operators.Learner` — ``fit(X, None)``
and ``predict(X)`` returning cluster assignments.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["KMeans"]


class KMeans:
    """Lloyd's algorithm with k-means++ seeding.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k``.
    max_iter:
        Maximum number of assignment/update rounds.
    tol:
        Converged when the total centroid movement falls below this value.
    seed:
        Seed for the k-means++ initialization.
    """

    def __init__(self, n_clusters: int = 8, max_iter: int = 100, tol: float = 1e-6, seed: int = 0):
        if n_clusters < 1:
            raise ValueError("n_clusters must be at least 1")
        self.n_clusters = n_clusters
        self.max_iter = max_iter
        self.tol = tol
        self._seed = seed
        self.cluster_centers_: Optional[np.ndarray] = None
        self.inertia_: float = float("inf")
        self.n_iter_: int = 0

    def set_seed(self, seed: int) -> None:
        self._seed = int(seed)

    # ------------------------------------------------------------------ fitting
    def _init_centers(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """k-means++ initialization."""
        n = X.shape[0]
        centers = np.empty((self.n_clusters, X.shape[1]))
        first = rng.integers(n)
        centers[0] = X[first]
        closest_sq = np.sum((X - centers[0]) ** 2, axis=1)
        for i in range(1, self.n_clusters):
            total = closest_sq.sum()
            if total <= 0:
                centers[i] = X[rng.integers(n)]
            else:
                probabilities = closest_sq / total
                choice = rng.choice(n, p=probabilities)
                centers[i] = X[choice]
            distances = np.sum((X - centers[i]) ** 2, axis=1)
            closest_sq = np.minimum(closest_sq, distances)
        return centers

    def fit(self, X: np.ndarray, y: Optional[np.ndarray] = None) -> "KMeans":  # noqa: ARG002
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a 2-D matrix")
        n = X.shape[0]
        if n == 0:
            self.cluster_centers_ = np.zeros((self.n_clusters, X.shape[1]))
            self.inertia_ = 0.0
            return self
        k = min(self.n_clusters, n)
        rng = np.random.default_rng(self._seed)
        if k < self.n_clusters:
            # Fewer points than clusters: every point is its own centroid and the
            # remaining centroids are duplicates of the last point.
            centers = np.vstack([X, np.repeat(X[-1:], self.n_clusters - k, axis=0)])
        else:
            centers = self._init_centers(X, rng)
        self.n_iter_ = 0
        for _ in range(self.max_iter):
            assignments = self._assign(X, centers)
            new_centers = centers.copy()
            for cluster in range(self.n_clusters):
                members = X[assignments == cluster]
                if len(members):
                    new_centers[cluster] = members.mean(axis=0)
            movement = float(np.linalg.norm(new_centers - centers))
            centers = new_centers
            self.n_iter_ += 1
            if movement < self.tol:
                break
        self.cluster_centers_ = centers
        assignments = self._assign(X, centers)
        self.inertia_ = float(np.sum((X - centers[assignments]) ** 2))
        return self

    @staticmethod
    def _assign(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
        distances = np.linalg.norm(X[:, None, :] - centers[None, :, :], axis=2)
        return np.argmin(distances, axis=1)

    # ------------------------------------------------------------------ inference
    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.cluster_centers_ is None:
            raise ValueError("model is not fitted")
        X = np.asarray(X, dtype=float)
        if X.shape[0] == 0:
            return np.zeros(0, dtype=int)
        return self._assign(X, self.cluster_centers_)
