import numpy as np
import pytest

from cgl import metrics


# ---------------------------------------------------------------------------
# brute-force oracles


def brute_weighted_f1(scores, labels, thr=0.5):
    n_classes = scores.shape[1]
    num = 0.0
    total_support = 0
    for c in range(n_classes):
        tp = fp = fn = 0
        for u in range(scores.shape[0]):
            pred = scores[u, c] >= thr
            true = labels[u, c] != 0
            tp += pred and true
            fp += pred and not true
            fn += true and not pred
        support = tp + fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        num += support * f1
        total_support += support
    return num / total_support


def brute_recall_at_k(scores, labels, k):
    vals = []
    for u in range(scores.shape[0]):
        pos = [c for c in range(scores.shape[1]) if labels[u, c]]
        if not pos:
            continue
        ranked = sorted(range(scores.shape[1]), key=lambda c: (-scores[u, c], c))
        top = set(ranked[:k])
        vals.append(len(top & set(pos)) / len(pos))
    return sum(vals) / len(vals)


def brute_auc(scores, labels):
    """Trapezoidal integration of the ROC curve over all thresholds."""
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels).ravel() != 0
    n_pos, n_neg = labels.sum(), (~labels).sum()
    points = [(0.0, 0.0)]
    for thr in sorted(set(scores), reverse=True):
        pred = scores >= thr
        tpr = (pred & labels).sum() / n_pos
        fpr = (pred & ~labels).sum() / n_neg
        points.append((fpr, tpr))
    points.append((1.0, 1.0))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def brute_onset_split(scores, labels, occurred, k):
    occ_vals, new_vals = [], []
    for u in range(scores.shape[0]):
        pos = [c for c in range(scores.shape[1]) if labels[u, c]]
        if not pos:
            continue
        ranked = sorted(range(scores.shape[1]), key=lambda c: (-scores[u, c], c))
        top = set(ranked[:k])
        occ = [c for c in pos if occurred[u, c]]
        new = [c for c in pos if not occurred[u, c]]
        if occ:
            occ_vals.append(len(top & set(occ)) / len(pos))
        if new:
            new_vals.append(len(top & set(new)) / len(pos))
    occ = sum(occ_vals) / len(occ_vals) if occ_vals else float("nan")
    new = sum(new_vals) / len(new_vals) if new_vals else float("nan")
    return occ, new


def per_row_recall_at_k(scores, labels, k):
    """The per-patient loop that rank_codes replaced, kept as the oracle."""
    values = []
    for row_scores, row_labels in zip(scores, labels):
        positives = np.nonzero(row_labels)[0]
        if positives.size == 0:
            continue
        top = metrics.top_k_indices(row_scores, k)
        values.append(np.intersect1d(top, positives).size / positives.size)
    return float(np.mean(values))


def per_row_onset_split(scores, labels, occurred, k):
    occ_values, new_values = [], []
    for row_scores, row_labels, row_occ in zip(scores, labels, occurred):
        positives = np.nonzero(row_labels)[0]
        if positives.size == 0:
            continue
        top = metrics.top_k_indices(row_scores, k)
        occ_set = positives[row_occ[positives] != 0]
        new_set = positives[row_occ[positives] == 0]
        if occ_set.size:
            occ_values.append(np.intersect1d(top, occ_set).size / positives.size)
        if new_set.size:
            new_values.append(np.intersect1d(top, new_set).size / positives.size)
    occ = float(np.mean(occ_values)) if occ_values else float("nan")
    new = float(np.mean(new_values)) if new_values else float("nan")
    return occ, new


def random_instance(rng, n=8, c=10):
    scores = rng.random((n, c))
    labels = (rng.random((n, c)) < 0.3).astype(float)
    labels[0, rng.integers(c)] = 1.0  # at least one positive somewhere
    return scores, labels


# ---------------------------------------------------------------------------
# weighted F1


def test_weighted_f1_perfect_and_zero():
    labels = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert metrics.weighted_f1(labels, labels) == 1.0
    assert metrics.weighted_f1(np.zeros_like(labels), labels) == 0.0


def test_weighted_f1_three_class_fixture():
    scores = np.array([[0.9, 0.1, 0.6], [0.2, 0.8, 0.4], [0.7, 0.9, 0.1]])
    labels = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
    got = metrics.weighted_f1(scores, labels)
    assert abs(got - brute_weighted_f1(scores, labels)) < 1e-12


def test_weighted_f1_degenerate():
    with pytest.raises(ValueError):
        metrics.weighted_f1(np.ones((2, 2)), np.zeros((2, 2)))


def test_binary_f1():
    scores = np.array([0.9, 0.2, 0.8, 0.4])
    labels = np.array([1.0, 0.0, 0.0, 1.0])
    # tp=1, fp=1, fn=1: precision = recall = 0.5
    assert metrics.binary_f1(scores, labels) == 0.5
    assert metrics.binary_f1(np.zeros(4), labels) == 0.0


# ---------------------------------------------------------------------------
# recall at k


def test_recall_at_k_half():
    scores = np.array([[0.9, 0.8, 0.1, 0.2]])
    labels = np.array([[1.0, 0.0, 1.0, 0.0]])
    assert metrics.recall_at_k(scores, labels, 2) == 0.5


def test_recall_at_k_full_coverage():
    rng = np.random.default_rng(0)
    scores, labels = random_instance(rng)
    assert metrics.recall_at_k(scores, labels, labels.shape[1]) == 1.0


def test_recall_at_k_all_positives_first():
    scores = np.array([[0.9, 0.8, 0.1, 0.05]])
    labels = np.array([[1.0, 1.0, 0.0, 0.0]])
    assert metrics.recall_at_k(scores, labels, 2) == 1.0


def test_recall_ties_break_to_lower_index():
    scores = np.array([[0.5, 0.5, 0.5]])
    labels = np.array([[0.0, 0.0, 1.0]])
    assert metrics.recall_at_k(scores, labels, 2) == 0.0  # indices 0,1 win the tie
    labels2 = np.array([[1.0, 0.0, 0.0]])
    assert metrics.recall_at_k(scores, labels2, 1) == 1.0


def test_recall_monotone_in_k():
    rng = np.random.default_rng(4)
    scores, labels = random_instance(rng)
    values = [metrics.recall_at_k(scores, labels, k) for k in range(1, labels.shape[1] + 1)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_recall_patients_without_positives_excluded():
    scores = np.array([[0.9, 0.1], [0.8, 0.2]])
    labels = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert metrics.recall_at_k(scores, labels, 1) == 1.0
    with pytest.raises(ValueError):
        metrics.recall_at_k(scores, np.zeros((2, 2)), 1)


# ---------------------------------------------------------------------------
# AUC


def test_auc_separated_and_ties():
    assert metrics.auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert metrics.auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5


def test_auc_six_sample_fixture_vs_roc_oracle():
    scores = np.array([0.9, 0.7, 0.7, 0.4, 0.3, 0.1])
    labels = np.array([1, 0, 1, 1, 0, 0])
    assert abs(metrics.auc(scores, labels) - brute_auc(scores, labels)) < 1e-12


def test_auc_single_class_rejected():
    with pytest.raises(ValueError):
        metrics.auc([0.1, 0.2], [1, 1])


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(8)
    scores = rng.random(40)
    labels = (rng.random(40) < 0.4).astype(int)
    labels[:2] = [0, 1]
    a = metrics.auc(scores, labels)
    b = metrics.auc(np.exp(3 * scores) + 7, labels)
    assert abs(a - b) < 1e-12


# ---------------------------------------------------------------------------
# onset split


def test_onset_split_quarter_each():
    # 4 positives, top-k catches one occurred and one new: 0.25 each
    scores = np.array([[0.9, 0.8, 0.1, 0.05, 0.2, 0.3]])
    labels = np.array([[1.0, 1.0, 1.0, 1.0, 0.0, 0.0]])
    occurred = np.array([[1, 0, 1, 0, 0, 0]])
    occ, new = metrics.onset_split_recall(scores, labels, occurred, 2)
    assert occ == 0.25 and new == 0.25


def test_onset_split_empty_group_excluded():
    scores = np.array([[0.9, 0.1, 0.2]])
    labels = np.array([[1.0, 1.0, 0.0]])
    occurred = np.array([[1, 1, 0]])  # everything previously seen
    occ, new = metrics.onset_split_recall(scores, labels, occurred, 1)
    assert occ == 0.5
    assert np.isnan(new)


def test_onset_partition_identity():
    rng = np.random.default_rng(21)
    for _ in range(20):
        scores, labels = random_instance(rng)
        occurred = (rng.random(scores.shape) < 0.5).astype(int)
        for u in range(scores.shape[0]):
            pos = np.nonzero(labels[u])[0]
            occ_part = pos[occurred[u, pos] != 0]
            new_part = pos[occurred[u, pos] == 0]
            if pos.size == 0 or occ_part.size == 0 or new_part.size == 0:
                continue
            row_s, row_l, row_o = scores[u:u + 1], labels[u:u + 1], occurred[u:u + 1]
            k = 4
            occ, new = metrics.onset_split_recall(row_s, row_l, row_o, k)
            overall = metrics.recall_at_k(row_s, row_l, k)
            assert abs((occ + new) - overall) < 1e-15


# ---------------------------------------------------------------------------
# oracle sweeps (50 random instances each)


def test_all_metrics_match_brute_force_sweep():
    rng = np.random.default_rng(123)
    for _ in range(50):
        scores, labels = random_instance(rng)
        occurred = (rng.random(scores.shape) < 0.5).astype(int)
        k = int(rng.integers(1, scores.shape[1] + 1))
        assert abs(metrics.weighted_f1(scores, labels)
                   - brute_weighted_f1(scores, labels)) < 1e-12
        assert abs(metrics.recall_at_k(scores, labels, k)
                   - brute_recall_at_k(scores, labels, k)) < 1e-12
        flat_scores = rng.random(30)
        flat_labels = (rng.random(30) < 0.5).astype(int)
        flat_labels[:2] = [0, 1]
        assert abs(metrics.auc(flat_scores, flat_labels)
                   - brute_auc(flat_scores, flat_labels)) < 1e-12
        got = metrics.onset_split_recall(scores, labels, occurred, k)
        want = brute_onset_split(scores, labels, occurred, k)
        for g, w in zip(got, want):
            assert (np.isnan(g) and np.isnan(w)) or abs(g - w) < 1e-12


def test_ranked_metrics_bit_identical_to_per_row_loop():
    rng = np.random.default_rng(5)
    for trial in range(60):
        n, c = int(rng.integers(1, 12)), int(rng.integers(1, 30))
        # few distinct levels force ties; some rows have no positives
        scores = rng.integers(0, 1 + trial % 4, size=(n, c)) / 4.0
        labels = (rng.random((n, c)) < 0.3).astype(float)
        labels[0, rng.integers(c)] = 1.0
        occurred = (rng.random((n, c)) < 0.5).astype(int)
        ranks = metrics.rank_codes(scores)
        for k in range(1, c + 2):
            for i in range(n):
                want = metrics.top_k_indices(scores[i], k)
                assert np.array_equal(np.sort(want), np.nonzero(ranks[i] < k)[0])
            assert (metrics.recall_at_k(scores, labels, k)
                    == metrics.recall_at_k(scores, labels, k, ranks)
                    == per_row_recall_at_k(scores, labels, k))
            want = per_row_onset_split(scores, labels, occurred, k)
            for got in (metrics.onset_split_recall(scores, labels, occurred, k),
                        metrics.onset_split_recall(scores, labels, occurred, k, ranks)):
                assert np.array_equal(got, want, equal_nan=True)
