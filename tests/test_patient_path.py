"""The bucketed patient path against the per-patient oracle.

``FrozenScorer.patient_forward`` runs all patients of a batch that share a
visit count T as one stack: the GRU on (B, 1, .) operands and the location
attention on (B, T). Then the batch runs in batch order: the notes of a token
count L as one stack, with the word projection, the scores, the note attention
and the penalty on (B, L) operands, and the head and cross-entropy once on
(N, 1, 2h). numpy runs a stacked product item by item with the kernel of a
lone matrix, so every forward bit must equal the per-patient path of
``per_patient_path.py``: each patient's scores, o_v, location attention and
note attention, the batch loss and its parts, and the predicted scores. The
gradients sum the stacked rows in another order, so they must equal the
oracle's to 1e-10. Their bytes must equal those of ``stack_order.py``, which
forms every sum across the stacks by hand, in the documented order.
"""

import functools
import itertools
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import per_patient_path as oracle
from cgl import autodiff as ad
from cgl import model
from cgl.model import (FrozenScorer, ModelConfig, ModelParams, PatientExample, by_length,
                       in_batch_order, predict_scores)
from problem_fixtures import build_problem
from stack_order import stack_order_gradients


def close(a, b, tol=1e-10):
    """Equal to ``tol``, relative to the largest magnitude in ``b`` when it exceeds 1."""
    scale = max(np.max(np.abs(b), initial=0.0), 1.0)
    return np.max(np.abs(np.asarray(a) - b), initial=0.0) <= tol * scale


def assert_forward_matches(net, leaves, h_c, batch):
    """Every patient's scores, o_v, location attention and note attention
    equal the oracle's, bit for bit. The scores and o_v are read in batch
    order, o_v from the join that the head and the note attention read."""
    visits = net.pool_visits(h_c, batch)
    want = oracle.forward_each(net, leaves, visits, batch)
    joins = []

    def join(*args):
        joins.append(in_batch_order(*args))
        return joins[-1]

    model.in_batch_order = join
    try:
        y_hat, buckets, stacks = net.patient_forward(leaves, visits, batch)
    finally:
        model.in_batch_order = in_batch_order
    o_v = joins[0]
    assert y_hat.shape == (len(batch), 1, want[0][0].shape[0])
    assert o_v.shape == (len(batch), 1, net.config.gru_hidden)
    for i, (want_y_hat, _, _, want_o_v) in enumerate(want):
        assert np.array_equal(y_hat.values[i, 0], want_y_hat.values), i
        assert np.array_equal(o_v.values[i, 0], want_o_v.values), i
    seen = np.sort(np.concatenate([b.members for b in buckets]))
    assert np.array_equal(seen, np.arange(len(batch)))
    for bucket in buckets:
        steps = bucket.alpha.shape[2]
        assert bucket.alpha.shape == (bucket.members.size, 1, steps)
        for b, i in enumerate(bucket.members):
            assert len(batch[i].visit_codes) == steps
            assert np.array_equal(bucket.alpha.values[b, 0], want[i][2].values), i
    note_alpha = {}
    for stack in stacks:
        assert stack.alpha.shape[:2] == (stack.members.size, 1)
        for b, i in enumerate(stack.members):
            assert i not in note_alpha
            assert len(batch[i].note_tokens) == stack.alpha.shape[2]
            note_alpha[i] = stack.alpha.values[b, 0]
    for i, (_, want_alpha, _, _) in enumerate(want):
        if want_alpha is None:
            assert i not in note_alpha
        else:
            assert np.array_equal(note_alpha[i], want_alpha.values), i


def assert_loss_and_gradients_match(net, batch):
    """The loss and its cross-entropy and penalty parts equal the oracle's
    bit for bit; the gradients match it to 1e-10, and equal byte for byte
    those of ``stack_order.py``, which sums across the stacks by hand."""
    leaves = net._constants()
    h_c = net.graph_forward(leaves, mode="train", update_stats=False)
    for got, want in zip(net.batch_loss(leaves, h_c, batch),
                         oracle.batch_loss(net, leaves, h_c, batch)):
        assert got.values.tobytes() == want.values.tobytes()
    loss, leaves, summed = stack_order_gradients(net, batch)
    want, want_leaves = oracle.loss_program(net, batch)()
    assert loss.values.tobytes() == want.values.tobytes()
    want.backward()
    for name, leaf in want_leaves.items():
        assert close(leaves[name].grad, leaf.grad), name
        assert leaves[name].grad.tobytes() == summed[name].tobytes(), name


def assert_predictions_match(net, scored):
    """Chunked scoring equals the oracle's one-block scoring, bit for bit."""
    want = oracle.predict_examples(net, scored)
    got = net.predict_examples(scored)
    assert predict_scores(net, scored).tobytes() == np.stack([s for s, _ in want]).tobytes()
    for (scores, alpha), (want_scores, want_alpha) in zip(got, want):
        assert scores.tobytes() == want_scores.tobytes()
        assert (alpha is None) == (want_alpha is None)
        if alpha is not None:
            assert alpha.tobytes() == want_alpha.tobytes()


@pytest.mark.parametrize("name", ["fixture-diagnosis", "fixture-heart_failure",
                                  "train-small", "train-wide"])
def test_buckets_match_the_per_patient_path(problems, name):
    net, batch, scored = problems[name]
    leaves = net._constants()
    h_c = net.graph_forward(leaves, mode="train", update_stats=True)
    assert_forward_matches(net, leaves, h_c, batch)
    assert_loss_and_gradients_match(net, batch)
    net.freeze_code_embeddings()
    assert_predictions_match(net, scored)


# ---------------------------------------------------------------------------
# bucket mixes on the desk-size fixture


@functools.cache
def fixture_net(task, notes):
    """The desk-size problem of ``task``, its model with batch-norm statistics
    so that it can score, built once per configuration; the tests only read it."""
    extra = {} if notes else dict(use_notes=False, note_loss_weight=0.0)
    prob = build_problem(task=task, seed=2, **extra)
    prob.model.graph_forward(prob.model._constants(), mode="train", update_stats=True)
    prob.model.freeze_code_embeddings()
    return prob


def mixed_batch(prob, patients, seed):
    """One example per ``(visits, note tokens)`` pair, built on the fixture's
    examples: random visits over the fixture's codes and a random note."""
    rng = np.random.default_rng(seed)
    n_codes, n_words = prob.model.n_codes, len(prob.vocab)
    out = []
    for k, (visits, tokens) in enumerate(patients):
        codes = [np.unique(rng.integers(0, n_codes, size=rng.integers(1, 4)))
                 for _ in range(visits)]
        out.append(replace(prob.examples[k % len(prob.examples)], visit_codes=codes,
                           note_tokens=rng.integers(0, n_words, size=tokens),
                           beta=rng.uniform(0.05, 0.95, size=tokens)))
    return out


patient_mixes = st.lists(st.tuples(st.integers(1, 5), st.integers(0, 10)),
                         min_size=1, max_size=9)


def assert_batch_matches(prob, batch):
    """Forward, loss, gradients and predictions of ``batch`` on the fixture's
    frozen code features equal the per-patient path's."""
    net = prob.model
    assert_forward_matches(net, net._constants(), ad.constant(net.frozen_code_repr), batch)
    assert_loss_and_gradients_match(net, batch)
    assert_predictions_match(net, batch)


@given(patients=patient_mixes, task=st.sampled_from(["diagnosis", "heart_failure"]),
       notes=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(patients=[(3, 4)] * 6, task="diagnosis", notes=True, seed=0)  # one T alone
@example(patients=[(t, 3) for t in (1, 2, 3, 4, 5, 3, 1, 5)], task="diagnosis",
         notes=True, seed=1)  # every T mixed
@example(patients=[(1, 2), (4, 9), (2, 0)], task="heart_failure", notes=True,
         seed=2)  # one-patient buckets
@example(patients=[(2, 0), (1, 0), (2, 5), (2, 0)], task="diagnosis", notes=True,
         seed=3)  # empty notes
@example(patients=[(2, 3), (1, 0), (2, 8)], task="diagnosis", notes=False, seed=4)
def test_bucket_mixes_match_the_per_patient_path(patients, task, notes, seed):
    prob = fixture_net(task, notes)
    assert_batch_matches(prob, mixed_batch(prob, patients, seed))


# Note token counts: a one-token note's products run as GEMVs, not GEMMs; past
# 8 and 128 tokens numpy's pairwise sums in the softmax and the penalty change
# shape.
note_lengths = st.one_of(st.sampled_from([0, 1, 2, 9, 129]), st.integers(0, 20))


@given(notes=st.lists(st.tuples(st.integers(1, 3), note_lengths), min_size=1, max_size=12),
       use_notes=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(notes=[(1, 0), (2, 0), (1, 0)], use_notes=True, seed=0)  # every note empty
@example(notes=[(1, 4), (2, 0), (1, 0), (3, 4)], use_notes=True, seed=1)  # some empty
@example(notes=[(2, 0), (1, 3), (3, 5), (1, 3), (2, 0)], use_notes=True,
         seed=7)  # empty at batch position 0, among two stacks
@example(notes=[(1, 1), (2, 1), (3, 1), (1, 1)], use_notes=True, seed=2)  # only L = 1
@example(notes=[(1, 1), (2, 6), (1, 1), (3, 0)], use_notes=True, seed=3)  # L = 1 among others
@example(notes=[(k % 3 + 1, 7) for k in range(9)], use_notes=True, seed=4)  # one L
@example(notes=[(k % 3 + 1, n) for k, n in enumerate([1, 2, 3, 5, 8, 9, 16, 17, 40, 129])],
         use_notes=True, seed=5)  # every L distinct
@example(notes=[(1, 3), (2, 1), (2, 0), (1, 9)], use_notes=False, seed=6)
def test_note_length_mixes_match_the_per_patient_path(notes, use_notes, seed):
    """Note stacks of every mix of token counts: forward, loss, gradients and
    predictions equal the per-patient path's."""
    prob = fixture_net("diagnosis", use_notes)
    assert_batch_matches(prob, mixed_batch(prob, notes, seed))


def test_join_puts_the_stacks_rows_in_batch_order():
    """``by_length`` runs each nonzero length once, in increasing length, and
    ``in_batch_order`` joins the stacks' rows with one concat and one gather:
    a zero row for each item in no stack, and each row's gradient back to its
    stack's row."""
    lengths = np.array([0, 3, 1, 3, 0, 1, 2])
    tape = ad.Tape()
    calls = []

    def run(members, n):
        calls.append((members.tolist(), n))
        rows = tape.leaf(np.stack([np.full((1, 2), 10.0 * i + n) for i in members]))
        return ad.constant(np.zeros((members.size, 1, n))), rows

    stacks, rows = by_length(lengths, run)
    assert calls == [([2, 5], 1), ([6], 2), ([1, 3], 3)]
    assert [s.members.tolist() for s in stacks] == [m for m, _ in calls]
    out = in_batch_order(stacks, rows, (7, 1, 2))
    assert len(tape._entries) == 2
    assert np.array_equal(out.values[:, 0, 0], [0, 13, 21, 33, 0, 51, 62])
    w = np.arange(14.0).reshape(7, 1, 2)
    ad.reduce_sum(ad.mul(out, w)).backward()
    for stack, r in zip(stacks, rows):
        assert np.array_equal(r.grad, w[stack.members])

    tape = ad.Tape()
    stacks, rows = by_length(np.array([2, 2]), run)
    assert len(in_batch_order(stacks, rows, (2, 1, 2)).tape._entries) == 1  # the gather
    empty = in_batch_order([], [], (3, 1))
    assert empty.tape is None and np.array_equal(empty.values, np.zeros((3, 1)))


# ---------------------------------------------------------------------------
# the stacked product the path rests on


@given(seed=st.integers(0, 2**32 - 1), items=st.integers(1, 5), m=st.integers(1, 3),
       k=st.integers(1, 5), n=st.integers(0, 4), right=st.sampled_from(["shared", "stacked"]))
def test_stacked_matmul_equals_per_item_matmuls(seed, items, m, k, n, right):
    """``(B, m, k) @ (k, n)`` and ``(B, m, k) @ (B, k, n)`` against B separate
    products: equal values and left gradients bit for bit, and the shared right
    operand's gradient, a sum over the items, to 1e-12. ``n == 0`` is a 1-d
    shared right operand."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(items, m, k))
    if right == "stacked":
        b = rng.normal(size=(items, k, max(n, 1)))
    else:
        b = rng.normal(size=(k, n) if n else (k,))
    w = rng.normal(size=np.matmul(a, b).shape)

    tape = ad.Tape()
    a_leaf, b_leaf = tape.leaf(a), tape.leaf(b)
    out = ad.matmul(a_leaf, b_leaf)
    ad.reduce_sum(ad.mul(out, w)).backward()

    for i in range(items):
        tape = ad.Tape()
        a_i = tape.leaf(a[i])
        b_i = tape.leaf(b[i] if right == "stacked" else b)
        out_i = ad.matmul(a_i, b_i)
        assert np.array_equal(out.values[i], out_i.values)
        ad.reduce_sum(ad.mul(out_i, w[i])).backward()
        assert np.array_equal(a_leaf.grad[i], a_i.grad)
        if right == "stacked":
            assert np.array_equal(b_leaf.grad[i], b_i.grad)
        else:
            b_sum = b_i.grad if i == 0 else b_sum + b_i.grad
    if right == "shared":
        assert np.allclose(b_leaf.grad, b_sum, rtol=1e-12, atol=1e-12)


def stacked_product_and_grads(a, b, w):
    """Values and both gradients of ``sum(w * (a @ b))`` through one matmul."""
    tape = ad.Tape()
    a_leaf, b_leaf = tape.leaf(a), tape.leaf(b)
    out = ad.matmul(a_leaf, b_leaf)
    ad.reduce_sum(ad.mul(out, w)).backward()
    return out.values, a_leaf.grad, b_leaf.grad


def check_column_blocked_product(n):
    """A wide (B, 1, k) @ (k, n) stack, run column block by column block,
    equals B lone products bit for bit, and its values and both gradients
    equal the unblocked op's. k is the default head's 2h = 400. A sliced right
    operand is a column slice of a wider array, so it is not contiguous."""
    width = ad.COLUMN_BLOCK
    try:
        for items, block, sliced in itertools.product([1, 2, 9, 33], [64, width],
                                                      [False, True]):
            rng = np.random.default_rng(n * 100 + items)
            a = rng.normal(size=(items, 1, 400))
            b = rng.normal(size=(400, n + 3))[:, 1:n + 1] if sliced else rng.normal(size=(400, n))
            w = rng.normal(size=(items, 1, n))
            ad.COLUMN_BLOCK = block
            got = stacked_product_and_grads(a, b, w)
            for i in range(items):
                assert np.array_equal(got[0][i], ad.matmul(a[i], b).values), (items, block)
            ad.COLUMN_BLOCK = 10 * n
            want = stacked_product_and_grads(a, b, w)
            for g, r in zip(got, want):
                assert np.array_equal(g, r), (items, block, sliced)
    finally:
        ad.COLUMN_BLOCK = width


def run_single_threaded(call):
    """Run ``test_patient_path.<call>`` in a fresh process with one BLAS
    thread, the only setting whose bits do not depend on the BLAS thread split."""
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "CGL_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    code = f"import test_patient_path as t; t.{call}"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]


@pytest.mark.parametrize("n", [81, 255, 256, 257, 1536, 1537, 5000])
def test_column_blocked_head_product_keeps_every_bit(n):
    """``check_column_blocked_product`` with one BLAS thread. Several BLAS
    threads split each GEMV's columns by its width, so there a narrower call
    can round a column differently (see ``matmul``)."""
    run_single_threaded(f"check_column_blocked_product({n})")


def check_one_patient_equals_its_chunk_row(n_codes):
    """A default-config scorer with random arrays at ``n_codes`` codes: each
    patient scored alone, as ``cgl predict`` does, gets the scores and note
    attention of its row of one stacked chunk, as ``cgl evaluate`` scores it,
    bit for bit. The chunk mixes visit counts and note token counts."""
    config = ModelConfig()
    rng = np.random.default_rng(n_codes)
    vocab_size = 40
    shapes = FrozenScorer.array_shapes(config, n_codes, vocab_size)
    params = ModelParams()
    for name, shape in shapes.items():
        params.add(name, rng.normal(scale=0.1, size=shape))
    scorer = FrozenScorer(config, params, params.arrays.pop("frozen_code_repr"))
    examples = [PatientExample(pid=f"p{i}",
                               visit_codes=[np.unique(rng.integers(0, n_codes, size=4))
                                            for _ in range(1 + i % 3)],
                               note_tokens=rng.integers(0, vocab_size, size=length),
                               beta=rng.uniform(0.05, 0.95, size=length),
                               positives=np.array([], dtype=np.intp))
                for i, length in enumerate([0, 1, 1, 2, 3, 3, 3, 7, 9, 17, 40, 129])]
    together = scorer.predict_examples(examples)
    for ex, (scores, alpha) in zip(examples, together):
        [(alone, alone_alpha)] = scorer.predict_examples([ex])
        assert alone.tobytes() == scores.tobytes(), ex.pid
        assert (alone_alpha is None) == (alpha is None) == (ex.note_tokens.size == 0)
        if alpha is not None:
            assert alone_alpha.tobytes() == alpha.tobytes(), ex.pid


def test_one_patient_equals_its_chunk_row_at_1537_codes():
    """``check_one_patient_equals_its_chunk_row`` with one BLAS thread, at a
    width where the column-blocked head (stacks) and the unblocked one (one
    patient) can differ under several BLAS threads."""
    run_single_threaded("check_one_patient_equals_its_chunk_row(1537)")


def test_stacked_matmul_rejects_bad_stacks():
    with pytest.raises(ad.DimensionError, match="stacked"):
        ad.matmul(np.ones((2, 3)), np.ones((2, 3, 4)))
    with pytest.raises(ad.DimensionError, match="stacked"):
        ad.matmul(np.ones((2, 1, 3)), np.ones((3, 3, 4)))
    with pytest.raises(ad.DimensionError, match="disagree"):
        ad.matmul(np.ones((2, 1, 3)), np.ones((4, 2)))
