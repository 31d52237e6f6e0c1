"""Unit tests for k-means, naive Bayes and the embedding models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.embeddings import CooccurrenceEmbedding, RandomProjectionEmbedding, build_cooccurrence
from repro.ml.kmeans import KMeans
from repro.ml.naive_bayes import MultinomialNaiveBayes


def _blobs(n_per_cluster=30, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [8.0, 8.0], [-8.0, 8.0]])
    points = []
    labels = []
    for index, center in enumerate(centers):
        points.append(center + rng.normal(scale=0.5, size=(n_per_cluster, 2)))
        labels += [index] * n_per_cluster
    return np.vstack(points), np.array(labels)


class TestKMeans:
    def test_recovers_well_separated_blobs(self):
        X, labels = _blobs()
        model = KMeans(n_clusters=3, seed=0).fit(X)
        predicted = model.predict(X)
        # Each true cluster should map to exactly one predicted cluster.
        for cluster in range(3):
            assert len(np.unique(predicted[labels == cluster])) == 1
        assert len(np.unique(predicted)) == 3

    def test_inertia_decreases_with_more_clusters(self):
        X, _ = _blobs()
        inertia_1 = KMeans(n_clusters=1, seed=0).fit(X).inertia_
        inertia_3 = KMeans(n_clusters=3, seed=0).fit(X).inertia_
        assert inertia_3 < inertia_1

    def test_more_clusters_than_points(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        model = KMeans(n_clusters=5, seed=0).fit(X)
        assert model.cluster_centers_.shape == (5, 2)
        assert model.predict(X).shape == (2,)

    def test_empty_fit_and_predict(self):
        model = KMeans(n_clusters=2).fit(np.zeros((0, 3)))
        assert model.inertia_ == 0.0
        assert model.predict(np.zeros((0, 3))).shape == (0,)

    def test_unfitted_predict_raises(self):
        with pytest.raises(ValueError):
            KMeans().predict(np.zeros((1, 2)))

    def test_invalid_cluster_count(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=0)

    def test_deterministic_given_seed(self):
        X, _ = _blobs()
        a = KMeans(n_clusters=3, seed=5).fit(X).inertia_
        b = KMeans(n_clusters=3, seed=5).fit(X).inertia_
        assert a == b

class TestMultinomialNaiveBayes:
    def _count_data(self, seed=0):
        rng = np.random.default_rng(seed)
        # Class 0 uses mostly the first half of the vocabulary, class 1 the second half.
        X0 = rng.poisson(lam=[3, 3, 0.2, 0.2], size=(60, 4))
        X1 = rng.poisson(lam=[0.2, 0.2, 3, 3], size=(60, 4))
        X = np.vstack([X0, X1]).astype(float)
        y = np.array([0.0] * 60 + [1.0] * 60)
        return X, y

    def test_classifies_count_data(self):
        X, y = self._count_data()
        model = MultinomialNaiveBayes().fit(X, y)
        assert np.mean(model.predict(X) == y) > 0.9

    def test_predict_proba_normalized(self):
        X, y = self._count_data()
        proba = MultinomialNaiveBayes().fit(X, y).predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_negative_features_clipped(self):
        X, y = self._count_data()
        X[0, 0] = -5.0
        model = MultinomialNaiveBayes().fit(X, y)
        assert np.isfinite(model.feature_log_prob_).all()

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            MultinomialNaiveBayes(alpha=0.0)

    def test_unfitted_predict_raises(self):
        with pytest.raises(ValueError):
            MultinomialNaiveBayes().predict(np.zeros((1, 2)))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            MultinomialNaiveBayes().fit(np.zeros((3, 2)), np.zeros(4))


DOCS = [
    "gene001 regulates gene002 in carcinoma".split(),
    "gene001 binds gene002 pathway".split(),
    "gene003 expresses gene004 in tissue".split(),
    "gene003 gene004 signalling network".split(),
    "gene001 gene002 interact strongly".split(),
    "gene003 gene004 interact weakly".split(),
]


class TestCooccurrence:
    def test_build_cooccurrence_symmetric_counts(self):
        vocabulary, matrix = build_cooccurrence(DOCS, window=2)
        assert matrix.shape == (len(vocabulary), len(vocabulary))
        assert np.allclose(matrix, matrix.T)
        i = vocabulary["gene001"]
        j = vocabulary["gene002"]
        assert matrix[i, j] > 0

    def test_min_count_filters_rare_tokens(self):
        vocabulary, _ = build_cooccurrence(DOCS, min_count=3)
        assert "gene001" in vocabulary
        assert "carcinoma" not in vocabulary

    def test_embedding_groups_cooccurring_genes(self):
        model = CooccurrenceEmbedding(dimensions=4, window=3).fit(DOCS)
        target = model.vector("gene001")
        norms = np.linalg.norm(model.embeddings_, axis=1) * np.linalg.norm(target)
        similarity = model.embeddings_ @ target / np.where(norms > 0, norms, 1.0)
        ranked = [token for token, _ in sorted(model.vocabulary_.items(), key=lambda kv: -similarity[kv[1]])]
        assert "gene002" in [token for token in ranked if token != "gene001"][:3]

    def test_vector_shapes_and_oov(self):
        model = CooccurrenceEmbedding(dimensions=6).fit(DOCS)
        assert model.vector("gene001").shape == (6,)
        assert np.allclose(model.vector("unknown_token"), 0.0)

    def test_dimensions_padding_when_vocab_small(self):
        model = CooccurrenceEmbedding(dimensions=50).fit(DOCS[:2])
        assert model.embeddings_.shape[1] == 50

    def test_empty_corpus(self):
        model = CooccurrenceEmbedding(dimensions=4).fit([])
        assert model.embeddings_.shape == (0, 4)
        assert "anything" not in model

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            CooccurrenceEmbedding(dimensions=0)

    def test_random_projection_is_seed_deterministic(self):
        a = RandomProjectionEmbedding(dimensions=4, seed=3).fit(DOCS)
        b = RandomProjectionEmbedding(dimensions=4, seed=3).fit(DOCS)
        c = RandomProjectionEmbedding(dimensions=4, seed=4).fit(DOCS)
        assert np.allclose(a.embeddings_, b.embeddings_)
        assert not np.allclose(a.embeddings_, c.embeddings_)

    def test_unfitted_vector_raises(self):
        with pytest.raises(ValueError):
            CooccurrenceEmbedding().vector("x")
