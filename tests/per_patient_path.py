"""The per-patient patient path: the oracle for the bucketed batch.

Each patient runs alone, one visit at a time on (1, d) rows, its note on its
own (L, w) words, and the batch loss adds the patients' terms one ``add`` at a
time. ``FrozenScorer`` runs every patient of a visit count T as one (B, T, d)
stack and every note of a token count L as one (B, L, h) stack; its
per-patient outputs and loss must equal these bit for bit, and its gradients
must equal these to 1e-10.
"""

import numpy as np

from cgl import autodiff as ad
from cgl.model import CLAMP_EPS
from composed_gru import tanh
from oracles import label_vectors


def encode_visits(model, leaves, visit_rows):
    """GRU over one patient's (1, d) visit rows, plus location attention:
    the (T, h) states, the (T,) attention and the (h,) summary o_v."""
    h = ad.constant(np.zeros((1, model.config.gru_hidden)))
    rows = None
    for x in visit_rows:
        z = ad.sigmoid(ad.add(ad.add(ad.matmul(x, leaves["gru_in_update"]),
                                     ad.matmul(h, leaves["gru_state_update"])),
                              leaves["gru_bias_update"]))
        r = ad.sigmoid(ad.add(ad.add(ad.matmul(x, leaves["gru_in_reset"]),
                                     ad.matmul(h, leaves["gru_state_reset"])),
                              leaves["gru_bias_reset"]))
        cand = tanh(ad.add(ad.add(ad.matmul(x, leaves["gru_in_cand"]),
                                  ad.matmul(ad.mul(r, h), leaves["gru_state_cand"])),
                           leaves["gru_bias_cand"]))
        h = ad.add(ad.mul(z, h), ad.mul(ad.sub(1.0, z), cand))
        rows = h if rows is None else ad.concat([rows, h], axis=0)
    alpha = ad.softmax(ad.matmul(rows, leaves["visit_context"]), axis=0)
    o_v = ad.matmul(alpha, rows)
    return rows, alpha, o_v


def note_attention(model, leaves, token_idx, o_v):
    """Attention over one note's projected word embeddings with o_v as context:
    the (L,) weights, or None for an empty note, and the (h,) summary o_n."""
    if token_idx.size == 0:
        return None, ad.constant(np.zeros(model.config.gru_hidden))
    words = ad.gather_rows(leaves["word_embed"], token_idx)
    projected = ad.matmul(words, leaves["word_proj"])
    alpha = ad.softmax(ad.matmul(projected, o_v), axis=0)
    o_n = ad.matmul(alpha, projected)
    return alpha, o_n


def rectified_penalty(alpha, beta):
    """One patient's note penalty; an empty note contributes 0."""
    if alpha is None:
        return ad.constant(0.0)
    ln_b = ad.constant(np.log(beta))
    ln_1b = ad.constant(np.log1p(-beta))
    inner = ad.add(ad.mul(alpha, ln_b), ad.mul(ad.sub(1.0, alpha), ln_1b))
    return ad.mul(ad.reduce_sum(inner), -1.0)


def patient_forward(model, leaves, visits, first, example):
    """One patient, whose pooled visits are the rows of ``visits`` from
    ``first`` on: its scores, note attention, location attention and o_v."""
    rows = [ad.gather_rows(visits, [i]) for i in range(first, first + len(example.visit_codes))]
    _, alpha, o_v = encode_visits(model, leaves, rows)
    if model.config.use_notes:
        note_alpha, o_n = note_attention(model, leaves, example.note_tokens, o_v)
    else:
        note_alpha, o_n = None, ad.constant(np.zeros(model.config.gru_hidden))
    out = ad.concat([o_v, o_n], axis=0)
    logits = ad.add(ad.matmul(out, leaves["head_weight"]), leaves["head_bias"])
    return ad.sigmoid(logits), note_alpha, alpha, o_v


def forward_each(model, leaves, visits, examples):
    """``patient_forward`` for every patient of a batch, in order."""
    out, first = [], 0
    for ex in examples:
        out.append(patient_forward(model, leaves, visits, first, ex))
        first += len(ex.visit_codes)
    return out


def cross_entropy(y_hat, y):
    clamped = ad.clamp(y_hat, CLAMP_EPS, 1.0 - CLAMP_EPS)
    term = ad.add(ad.mul(ad.constant(y), ad.log(clamped)),
                  ad.mul(ad.constant(1.0 - y), ad.log(ad.sub(1.0, clamped))))
    return ad.mul(ad.reduce_mean(term), -1.0)


def batch_loss(model, leaves, h_c, examples):
    """Mean cross-entropy plus weighted mean note penalty, summed patient by patient."""
    ce_sum = pen_sum = None
    visits = model.pool_visits(h_c, examples)
    for ex, (y_hat, note_alpha, _, _) in zip(examples, forward_each(model, leaves, visits,
                                                                    examples)):
        ce = cross_entropy(y_hat, label_vectors([ex.positives], y_hat.values.shape[-1])[0])
        pen = rectified_penalty(note_alpha, ex.beta)
        ce_sum = ce if ce_sum is None else ad.add(ce_sum, ce)
        pen_sum = pen if pen_sum is None else ad.add(pen_sum, pen)
    n = float(len(examples))
    ce_mean = ad.mul(ce_sum, 1.0 / n)
    pen_mean = ad.mul(pen_sum, 1.0 / n)
    loss = ad.add(ce_mean, ad.mul(pen_mean, model.config.note_loss_weight))
    return loss, ce_mean, pen_mean


def loss_program(model, examples):
    """``model.loss_program`` with the per-patient batch loss."""
    def f():
        leaves = model._leaves(ad.Tape())
        h_c = model.graph_forward(leaves, mode="train", update_stats=False)
        return batch_loss(model, leaves, h_c, examples)[0], leaves
    return f


def predict_examples(model, examples):
    """Frozen-feature scores and note attention per patient, all pooled at once."""
    leaves = model._constants()
    visits = model.pool_visits(ad.constant(model.frozen_code_repr), examples)
    return [(y_hat.values.copy(), None if note_alpha is None else note_alpha.values.copy())
            for y_hat, note_alpha, _, _ in forward_each(model, leaves, visits, examples)]
