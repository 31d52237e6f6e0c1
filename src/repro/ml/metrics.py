"""Evaluation metrics for supervised and unsupervised tasks.

These back the PPR reducers in the workloads (accuracy / F1 for Census and
IE, cluster quality for genomics).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "accuracy",
    "precision",
    "recall",
    "f1_score",
    "confusion_matrix",
    "silhouette_score",
    "cluster_sizes",
]


def _to_binary(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        return values
    unique = np.unique(values)
    if unique.size <= 1:
        return (values > 0.5).astype(float)
    threshold = (unique.min() + unique.max()) / 2.0
    return (values > threshold).astype(float)


def accuracy(y_true: Sequence[float], y_pred: Sequence[float]) -> float:
    """Fraction of exact matches between predictions and labels."""
    y_true = np.asarray(y_true, dtype=float).ravel()
    y_pred = np.asarray(y_pred, dtype=float).ravel()
    if y_true.size == 0:
        return 0.0
    if y_true.size != y_pred.size:
        raise ValueError("y_true and y_pred have mismatched lengths")
    return float(np.mean(y_true == y_pred))


def confusion_matrix(y_true: Sequence[float], y_pred: Sequence[float]) -> Dict[str, int]:
    """Binary confusion matrix as a dictionary (tp / fp / tn / fn)."""
    true_binary = _to_binary(np.asarray(y_true))
    pred_binary = _to_binary(np.asarray(y_pred))
    if true_binary.size != pred_binary.size:
        raise ValueError("y_true and y_pred have mismatched lengths")
    tp = int(np.sum((true_binary == 1) & (pred_binary == 1)))
    fp = int(np.sum((true_binary == 0) & (pred_binary == 1)))
    tn = int(np.sum((true_binary == 0) & (pred_binary == 0)))
    fn = int(np.sum((true_binary == 1) & (pred_binary == 0)))
    return {"tp": tp, "fp": fp, "tn": tn, "fn": fn}


def precision(y_true: Sequence[float], y_pred: Sequence[float]) -> float:
    cm = confusion_matrix(y_true, y_pred)
    denominator = cm["tp"] + cm["fp"]
    return cm["tp"] / denominator if denominator else 0.0


def recall(y_true: Sequence[float], y_pred: Sequence[float]) -> float:
    cm = confusion_matrix(y_true, y_pred)
    denominator = cm["tp"] + cm["fn"]
    return cm["tp"] / denominator if denominator else 0.0


def f1_score(y_true: Sequence[float], y_pred: Sequence[float]) -> float:
    p = precision(y_true, y_pred)
    r = recall(y_true, y_pred)
    return 2 * p * r / (p + r) if (p + r) else 0.0


def cluster_sizes(assignments: Sequence[int]) -> Dict[int, int]:
    """Number of points per cluster (used by the genomics PPR reducer)."""
    assignments = np.asarray(assignments, dtype=int).ravel()
    unique, counts = np.unique(assignments, return_counts=True)
    return {int(cluster): int(count) for cluster, count in zip(unique, counts)}


def silhouette_score(X: np.ndarray, assignments: Sequence[int]) -> float:
    """Mean silhouette coefficient (simplified O(n^2) implementation).

    Returns 0.0 for degenerate clusterings (fewer than 2 clusters or fewer
    than 2 points), matching the convention of treating those as uninformative.
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray(assignments, dtype=int).ravel()
    if X.shape[0] != labels.size:
        raise ValueError("X and assignments have mismatched lengths")
    if X.shape[0] < 2 or np.unique(labels).size < 2:
        return 0.0
    distances = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
    scores = np.zeros(X.shape[0])
    for i in range(X.shape[0]):
        same = labels == labels[i]
        same[i] = False
        a = distances[i, same].mean() if same.any() else 0.0
        b = np.inf
        for other in np.unique(labels):
            if other == labels[i]:
                continue
            mask = labels == other
            if mask.any():
                b = min(b, distances[i, mask].mean())
        if not np.isfinite(b):
            scores[i] = 0.0
        else:
            denominator = max(a, b)
            scores[i] = (b - a) / denominator if denominator > 0 else 0.0
    return float(scores.mean())
