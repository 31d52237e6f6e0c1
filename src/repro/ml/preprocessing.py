"""Feature preprocessing: hashed bag-of-words and random Fourier features.

Two of the data-dependent feature transformations discussed in Section 3.1.1
of the paper, wrapped inside Helix extractor operators by the workloads.
"""

from __future__ import annotations

import zlib
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = ["HashingVectorizer", "RandomFourierFeatures"]


class HashingVectorizer:
    """Hash token counts into a fixed-width vector (vocabulary-free bag of words)."""

    def __init__(self, n_features: int = 256, seed: int = 0):
        if n_features < 1:
            raise ValueError("n_features must be at least 1")
        self.n_features = n_features
        self.seed = seed

    def _bucket(self, token: str) -> int:
        # CRC-32 of a fixed encoding, not the builtin hash: PYTHONHASHSEED
        # randomizes str hashes per process, and the buckets must be the
        # same on every worker.
        data = f"{self.seed}:{token}".encode("utf-8", "surrogatepass")
        return zlib.crc32(data) % self.n_features

    def transform(self, documents: Iterable[Sequence[str]]) -> np.ndarray:
        rows = []
        for document in documents:
            row = np.zeros(self.n_features)
            for token in document:
                row[self._bucket(token)] += 1.0
            rows.append(row)
        return np.vstack(rows) if rows else np.zeros((0, self.n_features))

    def transform_one(self, document: Sequence[str]) -> np.ndarray:
        return self.transform([document])[0]


class RandomFourierFeatures:
    """Random Fourier feature map approximating an RBF kernel.

    The MNIST workflow in the KeystoneML evaluation uses a random FFT
    featurization of the images; this transformation plays the same role: a
    *non-deterministic* (freshly seeded per fit unless a seed is supplied)
    coarse-grained DPR step whose output cannot be safely reused across
    iterations, which is exactly the property the MNIST experiment stresses.
    """

    def __init__(self, n_components: int = 128, gamma: float = 1.0, seed: Optional[int] = None):
        if n_components < 1:
            raise ValueError("n_components must be at least 1")
        self.n_components = n_components
        self.gamma = gamma
        self.seed = seed
        self.weights_: Optional[np.ndarray] = None
        self.offsets_: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray, y: Optional[np.ndarray] = None) -> "RandomFourierFeatures":  # noqa: ARG002
        X = np.asarray(X, dtype=float)
        rng = np.random.default_rng(self.seed)
        d = X.shape[1] if X.ndim == 2 else 1
        self.weights_ = rng.normal(scale=np.sqrt(2.0 * self.gamma), size=(d, self.n_components))
        self.offsets_ = rng.uniform(0.0, 2.0 * np.pi, size=self.n_components)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.weights_ is None or self.offsets_ is None:
            raise ValueError("transformer is not fitted")
        X = np.asarray(X, dtype=float)
        projection = X @ self.weights_ + self.offsets_
        return np.sqrt(2.0 / self.n_components) * np.cos(projection)

    def fit_transform(self, X: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
        return self.fit(X, y).transform(X)
