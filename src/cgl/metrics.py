"""Evaluation metrics: weighted F1, top-k recall, AUC, onset-split recall.

All functions take dense numpy arrays (patients x codes, or flat vectors for
the binary task) and are pure. Score ties in top-k selection break toward the
lower code index so rankings are deterministic.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import rankdata

__all__ = [
    "weighted_f1",
    "binary_f1",
    "recall_at_k",
    "auc",
    "top_k_indices",
    "rank_codes",
    "top_k_hits",
    "onset_split_recall",
]


def _validate_pair(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError(f"scores shape {scores.shape} != labels shape {labels.shape}")
    return scores, labels


def weighted_f1(scores, labels, threshold: float = 0.5) -> float:
    """Support-weighted mean of per-class F1 at the given threshold.

    A class with no true and no predicted positives gets F1 = 0; weights are
    the per-class true-label counts. All labels zero is degenerate.
    """
    scores, labels = _validate_pair(scores, labels)
    if scores.ndim != 2:
        raise ValueError("weighted_f1 expects (patients, classes) matrices")
    pred = scores >= threshold
    truth = labels != 0
    support = truth.sum(axis=0).astype(np.float64)
    total = support.sum()
    if total == 0:
        raise ValueError("weighted_f1 is undefined when no class has positives")
    tp = (pred & truth).sum(axis=0).astype(np.float64)
    fp = (pred & ~truth).sum(axis=0).astype(np.float64)
    fn = (~pred & truth).sum(axis=0).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        f1 = np.where(precision + recall > 0,
                      2 * precision * recall / (precision + recall), 0.0)
    return float((f1 * support).sum() / total)


def binary_f1(scores, labels, threshold: float = 0.5) -> float:
    """F1 of the positive class for a binary task."""
    scores, labels = _validate_pair(scores, labels)
    pred = scores >= threshold
    truth = labels != 0
    tp = float((pred & truth).sum())
    fp = float((pred & ~truth).sum())
    fn = float((~pred & truth).sum())
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest scores; ties break toward lower index."""
    order = np.argsort(-scores, kind="stable")
    return order[:k]


def rank_codes(scores) -> np.ndarray:
    """Each code's position in its row's descending score order, 0 first.

    Ties break toward the lower index, as in :func:`top_k_indices`, so a code
    is in its row's top k exactly when its rank is below k. One ranking
    serves every k.
    """
    order = np.argsort(-np.asarray(scores, dtype=np.float64), axis=-1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(order.shape[-1]), axis=-1)
    return ranks


def top_k_hits(ranks: np.ndarray, labels, k: int) -> np.ndarray:
    """Per patient, the number of labelled codes that rank in the top k."""
    return ((np.asarray(labels) != 0) & (ranks < k)).sum(axis=-1)


def recall_at_k(scores, labels, k: int, ranks: np.ndarray | None = None) -> float:
    """Mean over patients of |top-k hits| / |positives|.

    Patients without positives are excluded from the mean; if every patient
    lacks positives the metric is degenerate. ``ranks`` is
    :func:`rank_codes` of ``scores``, for callers that reuse one ranking.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    scores, labels = _validate_pair(scores, labels)
    if scores.ndim != 2:
        raise ValueError("recall_at_k expects (patients, classes) matrices")
    n_pos = (labels != 0).sum(axis=1)
    have = n_pos > 0
    if not have.any():
        raise ValueError("recall_at_k is undefined: no patient has positive labels")
    hits = top_k_hits(rank_codes(scores) if ranks is None else ranks, labels, k)
    return float(np.mean(hits[have] / n_pos[have]))


def auc(scores, labels) -> float:
    """Area under the ROC curve via midrank statistics.

    Equivalent to the probability that a random positive outranks a random
    negative, with ties counted half.
    """
    scores, labels = _validate_pair(scores, labels)
    scores = scores.reshape(-1)
    truth = labels.reshape(-1) != 0
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc needs both classes present")
    ranks = rankdata(scores)
    return float((ranks[truth].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def onset_split_recall(scores, labels, occurred, k: int,
                       ranks: np.ndarray | None = None) -> tuple[float, float]:
    """Top-k recall split into previously-occurred vs new-onset positives.

    ``occurred`` flags, per patient and code, whether the code appeared in
    any feature visit. Both parts keep the full positive count as the
    denominator, so for a patient with both groups the parts sum to that
    patient's overall recall. Each part is averaged over the patients whose
    group is non-empty; an empty cohort yields NaN for that part. ``ranks``
    is :func:`rank_codes` of ``scores``, as in :func:`recall_at_k`.
    """
    scores, labels = _validate_pair(scores, labels)
    occurred = np.asarray(occurred)
    if occurred.shape != scores.shape:
        raise ValueError(f"occurred shape {occurred.shape} != scores shape {scores.shape}")
    if ranks is None:
        ranks = rank_codes(scores)
    truth = labels != 0
    n_pos = truth.sum(axis=1)
    parts = []
    for group in (truth & (occurred != 0), truth & (occurred == 0)):
        has = group.any(axis=1)
        values = top_k_hits(ranks, group, k)[has] / n_pos[has]
        parts.append(float(np.mean(values)) if values.size else float("nan"))
    return parts[0], parts[1]
