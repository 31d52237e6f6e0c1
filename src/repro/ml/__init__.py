"""ML substrate: models, feature maps, metrics, embeddings and text utilities."""

from .embeddings import CooccurrenceEmbedding, RandomProjectionEmbedding, build_cooccurrence
from .kmeans import KMeans
from .linear import LogisticRegression
from .metrics import (
    accuracy,
    cluster_sizes,
    confusion_matrix,
    f1_score,
    precision,
    recall,
    silhouette_score,
)
from .naive_bayes import MultinomialNaiveBayes
from .preprocessing import HashingVectorizer, RandomFourierFeatures
from .text import STOP_WORDS, pos_tag, remove_stop_words, split_sentences, tokenize

__all__ = [
    "CooccurrenceEmbedding",
    "RandomProjectionEmbedding",
    "build_cooccurrence",
    "KMeans",
    "LogisticRegression",
    "accuracy",
    "cluster_sizes",
    "confusion_matrix",
    "f1_score",
    "precision",
    "recall",
    "silhouette_score",
    "MultinomialNaiveBayes",
    "HashingVectorizer",
    "RandomFourierFeatures",
    "STOP_WORDS",
    "pos_tag",
    "remove_stop_words",
    "split_sentences",
    "tokenize",
]
