"""Unit tests for the linear model (logistic regression)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.linear import LogisticRegression


def _separable_data(n=200, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w = np.array([1.5, -2.0, 0.5][:d])
    y = (X @ w + 0.1 * rng.normal(size=n) > 0).astype(float)
    return X, y


class TestLogisticRegression:
    def test_learns_separable_data(self):
        X, y = _separable_data()
        model = LogisticRegression(reg_param=0.01, max_iter=300)
        model.fit(X, y)
        assert np.mean(model.predict(X) == y) > 0.9

    def test_predict_proba_shape_and_range(self):
        X, y = _separable_data()
        model = LogisticRegression().fit(X, y)
        proba = model.predict_proba(X)
        assert proba.shape == (len(X), 2)
        assert np.all(proba >= 0) and np.all(proba <= 1)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_predictions_are_binary(self):
        X, y = _separable_data()
        predictions = LogisticRegression().fit(X, y).predict(X)
        assert set(np.unique(predictions)) <= {0.0, 1.0}

    def test_regularization_shrinks_weights(self):
        X, y = _separable_data()
        loose = LogisticRegression(reg_param=0.0, max_iter=300).fit(X, y)
        tight = LogisticRegression(reg_param=5.0, max_iter=300).fit(X, y)
        assert np.linalg.norm(tight.weights_) < np.linalg.norm(loose.weights_)

    def test_nonstandard_labels_mapped(self):
        X, y = _separable_data()
        labels = np.where(y > 0, 5.0, 3.0)
        model = LogisticRegression(max_iter=300).fit(X, labels)
        assert np.mean(model.predict(X) == (labels > 4.0)) > 0.9

    def test_unfitted_predict_raises(self):
        with pytest.raises(ValueError):
            LogisticRegression().predict(np.zeros((2, 2)))

    def test_empty_training_set(self):
        model = LogisticRegression().fit(np.zeros((0, 3)), np.zeros(0))
        assert model.weights_ is not None
        assert model.predict(np.zeros((2, 3))).shape == (2,)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros(3), np.zeros(3))

    def test_negative_regularization_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegression(reg_param=-0.1)

    def test_single_class_degenerates_gracefully(self):
        X = np.random.default_rng(0).normal(size=(20, 2))
        y = np.zeros(20)
        model = LogisticRegression(max_iter=50).fit(X, y)
        assert set(model.predict(X)) <= {0.0, 1.0}

    def test_convergence_counter(self):
        X, y = _separable_data(n=50)
        model = LogisticRegression(max_iter=10).fit(X, y)
        assert 0 < model.n_iter_ <= 10
