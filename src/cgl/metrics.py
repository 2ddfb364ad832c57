"""Evaluation metrics: weighted F1, top-k recall, AUC, onset-split recall.

All functions take dense numpy arrays (patients x codes, or flat vectors for
the binary task) and are pure. One top-k selection, :func:`top_codes`, serves
predict and evaluate: it partitions each row and sorts only the k codes it
keeps, never all of them. Score ties break toward the lower code index so
rankings are deterministic.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import rankdata

# Rows selected per chunk in top_codes: 64 rows of 5,000 codes are 2.5 MB of
# float64 work space, whatever the number of rows.
SELECT_ROWS = 64

__all__ = [
    "weighted_f1",
    "binary_f1",
    "recall_at_k",
    "auc",
    "top_codes",
    "top_k_indices",
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


def top_codes(scores, k: int) -> np.ndarray:
    """Each row's k best code indices, best first; ties break toward the lower index.

    The result equals the first k columns of the stable argsort of -scores
    (NaN scores rank last, as there). Each row's k-th value is found by
    partition; the codes strictly better than it and the lowest-index codes
    equal to it make up the k, and only those are sorted. Rows run in chunks
    of ``SELECT_ROWS``, so no (rows, codes) index array is built. For
    k >= codes every code is ranked.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError("top_codes expects a (rows, codes) matrix")
    k = min(k, scores.shape[1])
    top = np.empty((len(scores), k), dtype=np.intp)
    for lo in range(0, len(scores), SELECT_ROWS):
        neg = -scores[lo:lo + SELECT_ROWS]
        rows = np.arange(len(neg))
        kth = np.partition(neg, k - 1, axis=1)[:, k - 1:k]
        nan = np.isnan(neg)
        better = ~((neg >= kth) | nan)  # NaN sorts last: it beats nothing, every number beats it
        tie = (neg == kth) | (nan & np.isnan(kth))
        # Each row's ties in index order: keep the first ones, as many as its k lacks.
        tie_row, tie_col = np.nonzero(tie)
        place = np.arange(tie_row.size) - np.searchsorted(tie_row, rows)[tie_row]
        keep = place < k - better.sum(axis=1)[tie_row]
        better[tie_row[keep], tie_col[keep]] = True
        chosen = np.nonzero(better)[1].reshape(-1, k)
        order = np.argsort(neg[rows[:, None], chosen], axis=1, kind="stable")
        top[lo:lo + SELECT_ROWS] = chosen[rows[:, None], order]
    return top


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of one row's k highest scores: :func:`top_codes` of that row."""
    return top_codes(np.asarray(scores)[None, :], k)[0]


def top_k_hits(top: np.ndarray, labels, k: int) -> np.ndarray:
    """Per patient, the number of labelled codes among its first k of ``top``,
    a :func:`top_codes` result for at least k."""
    labels = np.asarray(labels)
    if top.shape[1] < min(k, labels.shape[1]):
        raise ValueError(f"top holds {top.shape[1]} codes per row, fewer than k = {k}")
    return (np.take_along_axis(labels, top[:, :k], axis=1) != 0).sum(axis=1)


def recall_at_k(scores, labels, k: int, top: np.ndarray | None = None) -> float:
    """Mean over patients of |top-k hits| / |positives|.

    Patients without positives are excluded from the mean; if every patient
    lacks positives the metric is degenerate. ``top`` is :func:`top_codes`
    of ``scores`` for at least k, for callers that reuse one selection.
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
    hits = top_k_hits(top_codes(scores, k) if top is None else top, labels, k)
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
                       top: np.ndarray | None = None) -> tuple[float, float]:
    """Top-k recall split into previously-occurred vs new-onset positives.

    ``occurred`` flags, per patient and code, whether the code appeared in
    any feature visit. Both parts keep the full positive count as the
    denominator, so for a patient with both groups the parts sum to that
    patient's overall recall. Each part is averaged over the patients whose
    group is non-empty; an empty cohort yields NaN for that part. ``top``
    is :func:`top_codes` of ``scores``, as in :func:`recall_at_k`.
    """
    scores, labels = _validate_pair(scores, labels)
    occurred = np.asarray(occurred)
    if occurred.shape != scores.shape:
        raise ValueError(f"occurred shape {occurred.shape} != scores shape {scores.shape}")
    if top is None:
        top = top_codes(scores, k)
    truth = labels != 0
    n_pos = truth.sum(axis=1)
    parts = []
    for group in (truth & (occurred != 0), truth & (occurred == 0)):
        has = group.any(axis=1)
        values = top_k_hits(top, group, k)[has] / n_pos[has]
        parts.append(float(np.mean(values)) if values.size else float("nan"))
    return parts[0], parts[1]
