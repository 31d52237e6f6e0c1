"""Unit tests for the linear model (logistic regression)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml.linear import LogisticRegression, _sigmoid


def _reference_sigmoid(z):
    """The boolean-mask logistic function ``_sigmoid`` must match bit for bit."""
    out = np.empty_like(z, dtype=float)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def _reference_fit(model, X, y):
    """The allocating gradient loop ``fit`` must match bit for bit.

    Returns ``(weights, intercept, n_iter)`` for ``model``'s settings.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    classes = np.unique(y) if y.size else np.array([0.0, 1.0])
    if classes.size > 1:
        threshold = (classes.min() + classes.max()) / 2.0
        y01 = (y > threshold).astype(float)
    else:
        y01 = np.zeros_like(y)
    n, d = X.shape
    weights = np.zeros(d)
    intercept = 0.0
    n_iter = 0
    if n == 0:
        return weights, intercept, n_iter
    lipschitz = 0.25 * float(np.mean(np.sum(X * X, axis=1))) + model.reg_param
    step = min(model.learning_rate, 1.0 / max(lipschitz, 1e-12))
    for _ in range(model.max_iter):
        z = X @ weights + intercept
        p = _reference_sigmoid(z)
        error = p - y01
        grad_w = X.T @ error / n + model.reg_param * weights
        grad_b = float(error.mean()) if model.fit_intercept else 0.0
        weights -= step * grad_w
        intercept -= step * grad_b
        n_iter += 1
        if np.linalg.norm(grad_w) < model.tol and abs(grad_b) < model.tol:
            break
    return weights, intercept, n_iter


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


#: Finite values, infinities, NaN, signed zeros and magnitudes near overflow.
_EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 709.0, -709.0, 746.0, -746.0, 1e308, -1e308]),
)


@st.composite
def _fit_cases(draw):
    n = draw(st.integers(0, 40))
    d = draw(st.integers(1, 10))
    scale = draw(st.sampled_from([1.0, 1e3, 1e150, 1e300]))
    X = draw(arrays(np.float64, (n, d), elements=st.floats(-4.0, 4.0))) * scale
    labels = draw(st.sampled_from([(0.0, 1.0), (3.0, 5.0), (1.0,), (0.0,)]))
    y = draw(arrays(np.float64, n, elements=st.sampled_from(labels)))
    model = LogisticRegression(
        reg_param=draw(st.sampled_from([0, 0.0, 0.1, 5.0])),
        learning_rate=draw(st.sampled_from([0.5, 1e-3, 50.0])),
        max_iter=draw(st.integers(0, 25)),
        tol=draw(st.sampled_from([1e-6, 1e-2, 1.0, 1e6])),
        fit_intercept=draw(st.booleans()),
    )
    probe = draw(arrays(np.float64, (3, d), elements=_EDGE_FLOATS))
    return model, X, y, probe


class TestBitIdentity:
    """``fit`` and ``_sigmoid`` compute exactly what the allocating reference does."""

    @settings(max_examples=150, deadline=None)
    @given(arrays(np.float64, st.integers(0, 40), elements=_EDGE_FLOATS))
    def test_sigmoid_matches_reference(self, z):
        with np.errstate(all="ignore"):
            expected = _reference_sigmoid(z).tobytes()
            assert _sigmoid(z).tobytes() == expected
            out, work = np.full_like(z, 7.0), np.full_like(z, -3.0)
            nonneg = np.zeros(z.shape, dtype=bool)
            assert _sigmoid(z, out, work, nonneg) is out
            assert out.tobytes() == expected

    @settings(max_examples=200, deadline=None)
    @given(_fit_cases())
    def test_fit_matches_reference(self, case):
        model, X, y, probe = case
        with np.errstate(all="ignore"):
            weights, intercept, n_iter = _reference_fit(model, X, y)
            model.fit(X, y)
            assert model.n_iter_ == n_iter
            assert _bits(model.weights_) == _bits(weights)
            assert _bits(model.intercept_) == _bits(intercept)
            rows = np.vstack([X, probe])
            p = _reference_sigmoid(rows @ weights + intercept)
            expected = np.column_stack([1.0 - p, p])
            assert model.predict_proba(rows).tobytes() == expected.tobytes()

    def test_large_tol_stops_after_one_step(self):
        X, y = _separable_data(n=30)
        model = LogisticRegression(tol=1e6).fit(X, y)
        assert model.n_iter_ == 1 == _reference_fit(model, X, y)[2]


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
