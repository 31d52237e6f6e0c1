"""Unit tests for feature maps, metrics and text utilities."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ml.metrics import (
    accuracy,
    cluster_sizes,
    confusion_matrix,
    f1_score,
    precision,
    recall,
    silhouette_score,
)
from repro.ml.preprocessing import HashingVectorizer, RandomFourierFeatures
from repro.ml.text import STOP_WORDS, pos_tag, remove_stop_words, split_sentences, tokenize

#: Prints one list of token buckets, then one of labels for non-numeric
#: one-hot label categories.
_HASHED_IN_A_CHILD = (
    "from repro.core.data import FeatureVector\n"
    "from repro.core.operators import ExampleSynthesizer\n"
    "from repro.ml.preprocessing import HashingVectorizer\n"
    "vectorizer = HashingVectorizer(n_features=64, seed=13)\n"
    "print([vectorizer._bucket(t) for t in ('alice', 'married', 'bob', 'the', 'é中')])\n"
    "print([ExampleSynthesizer._label_from(FeatureVector.one_hot('y', c))\n"
    "       for c in ('yes', 'no', 'maybe', 'pos', 'neg', 'spouse', 'other')])\n"
)


class TestDiscretizerAndEncoders:
    def test_hashing_vectorizer_deterministic(self):
        vectorizer = HashingVectorizer(n_features=16, seed=1)
        a = vectorizer.transform([["x", "y", "x"]])
        b = vectorizer.transform([["x", "y", "x"]])
        assert np.array_equal(a, b)
        assert a.sum() == 3

    def test_hashing_vectorizer_invalid(self):
        with pytest.raises(ValueError):
            HashingVectorizer(n_features=0)

    def test_buckets_and_labels_are_the_same_under_any_hash_seed(self):
        """Two interpreters with different ``PYTHONHASHSEED``s hash tokens
        into the same buckets and map category labels to the same classes."""
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        outputs = []
        for seed in ("1", "8675309"):
            env["PYTHONHASHSEED"] = seed
            child = subprocess.run(
                [sys.executable, "-c", _HASHED_IN_A_CHILD],
                env=env, stdout=subprocess.PIPE, text=True, check=True,
            )
            outputs.append(child.stdout)
        assert outputs[0] == outputs[1]
        buckets, labels = map(ast.literal_eval, outputs[0].splitlines())
        assert len(set(buckets)) > 1
        assert set(labels) == {0.0, 1.0}  # the categories do not collapse to one class

    def test_random_fourier_features_shape_and_seed(self):
        X = np.random.default_rng(0).normal(size=(20, 5))
        a = RandomFourierFeatures(n_components=8, seed=1).fit_transform(X)
        b = RandomFourierFeatures(n_components=8, seed=1).fit_transform(X)
        c = RandomFourierFeatures(n_components=8, seed=2).fit_transform(X)
        assert a.shape == (20, 8)
        assert np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_random_fourier_unfitted_raises(self):
        with pytest.raises(ValueError):
            RandomFourierFeatures().transform(np.zeros((1, 2)))


class TestMetrics:
    def test_accuracy_and_confusion(self):
        y_true = [1, 0, 1, 1]
        y_pred = [1, 0, 0, 1]
        assert accuracy(y_true, y_pred) == 0.75
        cm = confusion_matrix(y_true, y_pred)
        assert cm == {"tp": 2, "fp": 0, "tn": 1, "fn": 1}

    def test_precision_recall_f1(self):
        y_true = [1, 1, 0, 0]
        y_pred = [1, 0, 1, 0]
        assert precision(y_true, y_pred) == 0.5
        assert recall(y_true, y_pred) == 0.5
        assert f1_score(y_true, y_pred) == 0.5

    def test_degenerate_precision_recall(self):
        assert precision([0, 0], [0, 0]) == 0.0
        assert recall([0, 0], [0, 0]) == 0.0
        assert f1_score([0, 0], [0, 0]) == 0.0

    def test_empty_inputs(self):
        assert accuracy([], []) == 0.0

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            accuracy([1], [1, 0])

    def test_cluster_sizes(self):
        assert cluster_sizes([0, 0, 1, 2, 2, 2]) == {0: 2, 1: 1, 2: 3}

    def test_silhouette_separated_better_than_random(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(0, 0.2, size=(20, 2)), rng.normal(5, 0.2, size=(20, 2))])
        good = [0] * 20 + [1] * 20
        bad = list(rng.integers(0, 2, size=40))
        assert silhouette_score(X, good) > silhouette_score(X, bad)

    def test_silhouette_degenerate(self):
        assert silhouette_score(np.zeros((3, 2)), [0, 0, 0]) == 0.0
        assert silhouette_score(np.zeros((1, 2)), [0]) == 0.0


class TestText:
    def test_tokenize_lowercases_and_splits(self):
        assert tokenize("Alice married Bob.") == ["alice", "married", "bob"]
        assert tokenize("Alice married Bob.", lowercase=False)[0] == "Alice"

    def test_split_sentences(self):
        sentences = split_sentences("First one. Second one! Third?")
        assert len(sentences) == 3

    def test_remove_stop_words(self):
        assert remove_stop_words(["the", "gene", "and", "protein"]) == ["gene", "protein"]
        assert "the" in STOP_WORDS

    def test_pos_tag_rules(self):
        tags = dict(pos_tag(["The", "Alice", "married", "quickly", "42", "of", "and", "it", "dog"]))
        assert tags["The"] == "DT"
        assert tags["Alice"] == "NNP"
        assert tags["married"] == "VB"
        assert tags["quickly"] == "RB"
        assert tags["42"] == "CD"
        assert tags["of"] == "IN"
        assert tags["and"] == "CC"
        assert tags["it"] == "PRP"
        assert tags["dog"] == "NN"
