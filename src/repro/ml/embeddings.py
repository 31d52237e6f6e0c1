"""Word/entity embeddings: a word2vec stand-in built on co-occurrence + SVD.

The genomics workload (Example 1 in the paper) computes embeddings for gene
mentions using word2vec or LINE.  Training a neural skip-gram model is not
the point of the reproduction — what matters is that an expensive, learned,
reusable embedding step sits in the middle of the workflow.  This module
implements two classical, deterministic embedding algorithms that exercise
the same code path:

* :class:`CooccurrenceEmbedding` — build a windowed word-word co-occurrence
  matrix, apply PPMI weighting and factorize it with a truncated SVD (the
  "count-based word2vec" of Levy & Goldberg).
* :class:`RandomProjectionEmbedding` — a cheaper LINE stand-in using seeded
  random projections of the co-occurrence rows; swapping between the two is
  the workload's "change the embedding algorithm" DPR/L-I iteration.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["build_cooccurrence", "CooccurrenceEmbedding", "RandomProjectionEmbedding"]


def build_cooccurrence(
    documents: Iterable[Sequence[str]],
    window: int = 4,
    min_count: int = 1,
) -> Tuple[Dict[str, int], np.ndarray]:
    """Build a symmetric windowed co-occurrence matrix.

    Returns ``(vocabulary, matrix)`` where ``vocabulary`` maps token to row
    index.  Tokens occurring fewer than ``min_count`` times are dropped.
    """
    token_counts: Counter = Counter()
    cached_docs: List[Sequence[str]] = []
    for document in documents:
        tokens = list(document)
        cached_docs.append(tokens)
        token_counts.update(tokens)
    vocabulary = {
        token: index
        for index, token in enumerate(sorted(t for t, c in token_counts.items() if c >= min_count))
    }
    matrix = np.zeros((len(vocabulary), len(vocabulary)), dtype=float)
    for tokens in cached_docs:
        indexed = [vocabulary.get(token) for token in tokens]
        for position, center in enumerate(indexed):
            if center is None:
                continue
            lo = max(0, position - window)
            hi = min(len(indexed), position + window + 1)
            for other_position in range(lo, hi):
                if other_position == position:
                    continue
                context = indexed[other_position]
                if context is None:
                    continue
                matrix[center, context] += 1.0
    return vocabulary, matrix


def _ppmi(matrix: np.ndarray) -> np.ndarray:
    """Positive pointwise mutual information weighting of a co-occurrence matrix."""
    total = matrix.sum()
    if total <= 0:
        return np.zeros_like(matrix)
    row = matrix.sum(axis=1, keepdims=True)
    col = matrix.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = row @ col / total
        pmi = np.log(np.where(expected > 0, matrix * total / (row @ col), 1.0))
    pmi[~np.isfinite(pmi)] = 0.0
    return np.clip(pmi, 0.0, None)


class CooccurrenceEmbedding:
    """PPMI + truncated-SVD embeddings (the count-based word2vec equivalent).

    ``fit`` expects an iterable of tokenized documents; :meth:`vectors`
    returns the embedding matrix and :meth:`vector` a single token's vector.
    """

    def __init__(self, dimensions: int = 32, window: int = 4, min_count: int = 1, seed: int = 0):
        if dimensions < 1:
            raise ValueError("dimensions must be at least 1")
        self.dimensions = dimensions
        self.window = window
        self.min_count = min_count
        self._seed = seed
        self.vocabulary_: Dict[str, int] = {}
        self.embeddings_: Optional[np.ndarray] = None

    def set_seed(self, seed: int) -> None:
        self._seed = int(seed)

    def fit(self, documents: Iterable[Sequence[str]], y: Optional[np.ndarray] = None) -> "CooccurrenceEmbedding":  # noqa: ARG002
        self.vocabulary_, matrix = build_cooccurrence(documents, self.window, self.min_count)
        if not self.vocabulary_:
            self.embeddings_ = np.zeros((0, self.dimensions))
            return self
        weighted = _ppmi(matrix)
        u, s, _vt = np.linalg.svd(weighted, full_matrices=False)
        k = min(self.dimensions, s.size)
        embeddings = u[:, :k] * np.sqrt(s[:k])
        if k < self.dimensions:
            padding = np.zeros((embeddings.shape[0], self.dimensions - k))
            embeddings = np.hstack([embeddings, padding])
        self.embeddings_ = embeddings
        return self

    # ------------------------------------------------------------------ lookup
    def __contains__(self, token: str) -> bool:
        return token in self.vocabulary_

    def vector(self, token: str) -> np.ndarray:
        if self.embeddings_ is None:
            raise ValueError("model is not fitted")
        index = self.vocabulary_.get(token)
        if index is None:
            return np.zeros(self.dimensions)
        return self.embeddings_[index]


class RandomProjectionEmbedding(CooccurrenceEmbedding):
    """A cheaper embedding using seeded random projection of co-occurrence rows.

    This is the stand-in for switching the embedding algorithm (word2vec ->
    LINE) in the genomics workload's iterations: same interface, noticeably
    different cost profile and output.
    """

    def fit(self, documents: Iterable[Sequence[str]], y: Optional[np.ndarray] = None) -> "RandomProjectionEmbedding":  # noqa: ARG002
        self.vocabulary_, matrix = build_cooccurrence(documents, self.window, self.min_count)
        if not self.vocabulary_:
            self.embeddings_ = np.zeros((0, self.dimensions))
            return self
        rng = np.random.default_rng(self._seed)
        projection = rng.standard_normal((matrix.shape[1], self.dimensions)) / np.sqrt(self.dimensions)
        self.embeddings_ = _ppmi(matrix) @ projection
        return self
