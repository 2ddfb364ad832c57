"""Visit pooling as one op, and what one training step leaves on the tape.

A batch pools all its visits with one ``group_mean`` over the code features;
the scorer does the same for each chunk of scored patients. Per visit, that
replaces a gather, a mean and a reshape. The pooled rows and the gradient into
the code features must equal the per-visit ops' bit for bit on the desk-size
fixture and on corpora of both training workloads' shapes (the ``problems``
fixture of ``conftest.py``).
"""

import gc

import numpy as np
import pytest

from cgl import autodiff as ad
from cgl.model import predict_scores
from per_patient_path import predict_examples as predict_one_by_one
from test_ops_oracle import assert_group_mean_matches, per_group_oracle


@pytest.mark.parametrize("name", ["fixture-diagnosis", "fixture-heart_failure",
                                  "train-small", "train-wide"])
def test_pooling_matches_per_visit_gather_and_mean(problems, name):
    net, batch, scored = problems[name]
    # a train-mode pass that updates the batch-norm statistics, so that the
    # features can be frozen below
    h_c = net.graph_forward(net._constants(), mode="train", update_stats=True).values
    groups = [idx for ex in batch for idx in ex.visit_codes]
    w = np.random.default_rng(3).normal(size=(len(groups), 1, h_c.shape[1]))
    assert_group_mean_matches(h_c, groups, w)

    # the predict path pools on the frozen features, one patient or a chunk
    # at a time, with the same bits
    net.freeze_code_embeddings()
    frozen = ad.constant(net.frozen_code_repr)
    for ex in scored:
        rows = per_group_oracle(frozen, ex.visit_codes)
        assert np.array_equal(net.pool_visits(frozen, [ex]).values,
                              np.concatenate([r.values for r in rows]))
    one_by_one = np.stack([scores for scores, _ in predict_one_by_one(net, scored)])
    assert predict_scores(net, scored).tobytes() == one_by_one.tobytes()


def test_train_small_step_records_fewer_and_lighter_entries(problems):
    """A 32-patient train-small step: the exact entry count, and the objects the
    cyclic collector tracks that the forward pass leaves alive, per entry."""
    net, batch, _ = problems["train-small"]
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        loss, _ = net.loss_program(batch)()
        kept = len(gc.get_objects()) - before
    finally:
        gc.enable()
    entries = len(loss.tape._entries)
    visits = sum(len(ex.visit_codes) for ex in batch)
    assert visits == 81
    steps = {len(ex.visit_codes) for ex in batch}
    assert steps == {1, 2, 3, 4}
    notes = {len(ex.note_tokens) for ex in batch}
    assert notes == {3, 4, 5, 6}
    # 2,876 with a gather, a mean and a reshape per visit, and 2,715 with one
    # pooling op but a GRU step per visit; 721 with buckets but a note path per
    # patient; 389 with a head and cross-entropy per bucket; 347 with binary
    # concat chains; 343 with 21 entries per stacked GRU step (1 + 2 + 3 + 4
    # steps) and a concat per later step; 131 with a word gather per note
    # stack. Now 33 entries of graph side and pooling, with one concat of the
    # 4 levels. The patients of each visit count form a bucket that runs as
    # one stack: 1 per bucket for its whole GRU recurrence and 4 for location
    # attention. A join is one concat and one gather: 2 for the buckets' o_v,
    # plus its reshape. 1 gathers every note token of the batch; the notes of
    # each token count form a stack: 13 per stack for its rows of those
    # words, note attention and penalty, 2 to join their o_n. Then 4 for the
    # head on the whole batch, 9 for its cross-entropy, 2 to join the penalty
    # terms and 6 for the sums and loss.
    assert entries == (33 + (1 + 4) * len(steps) + 3 + 1 + 13 * len(notes) + 2
                       + 4 + 9 + 2 + 6) == 132
    assert kept <= 5 * entries, f"{kept / entries:.2f} tracked objects per entry"
