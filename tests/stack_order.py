"""The bucketed batch's gradients with every sum across its stacks formed by
hand, in the documented order: the byte oracle for bucket and note mixes.

``FrozenScorer`` runs a batch as stacks: one GRU bucket per visit count T and
one note stack per token count L, each run in increasing length, so the
reverse sweep reaches them longest first. What several stacks feed into one
array is summed across them in that order:

- every GRU weight, ``visit_context`` and ``word_proj``: one product over all
  the stacks' rows, the longest stack's first, as the tape resolves the
  deferred products of one node in one GEMM;
- each GRU bias: a running sum, the longest bucket first and, within a
  bucket, its last step first;
- the pooled visits: a running sum of the buckets' scatters, the longest
  first; ``h_c`` then gets ``group_mean``'s one scatter, later groups first;
- ``word_embed``: one scatter of every note token, the longest notes first.

Each stack's own share comes from its op's backward, fed the gradient that
the tape handed the op; those ops are pinned against their composed forms in
``test_ops_oracle.py``. The head reads its arrays once. The graph side's
gradients are the backward of the oracle's ``h_c`` gradient through a fresh
graph pass.
"""

import contextlib

import numpy as np

from cgl import autodiff as ad
from eager_backward import tape_backward_by_node

RECORDED = ("gru_sequence", "matmul", "gather_rows")


@contextlib.contextmanager
def recorded_ops():
    """Record ``(op name, output, args)`` of every ``RECORDED`` op called."""
    ops = []
    real = {name: getattr(ad, name) for name in RECORDED}

    def recording(name):
        def call(*args):
            out = real[name](*args)
            ops.append((name, out, args))
            return out
        return call

    for name in RECORDED:
        setattr(ad, name, recording(name))
    try:
        yield ops
    finally:
        for name, op in real.items():
            setattr(ad, name, op)


def one_product(parts, shape):
    """Deferred products as the tape resolves them: one GEMM over their rows."""
    if not parts:
        return np.zeros(shape)
    left = np.concatenate([p.left for p in parts])
    rows = np.concatenate([p.rows for p in parts])
    return (left.T @ rows).reshape(shape)


def running_sum(terms, shape):
    total = None
    for term in terms:
        total = term if total is None else total + term
    return np.zeros(shape) if total is None else total


def group_mean_gradient(shape, groups, g):
    """``group_mean``'s documented gradient: one scatter, later groups first."""
    out = np.zeros(shape)
    for group, row in zip(groups[::-1], g[::-1]):
        np.add.at(out, group, np.broadcast_to(row / len(group), (len(group), row.size)))
    return out


def stack_order_gradients(net, batch):
    """Run ``net.loss_program(batch)`` and its backward. Returns the loss, the
    leaves, whose ``grad`` the tape filled, and the oracle's gradient for each."""
    with recorded_ops() as ops:
        loss, leaves = net.loss_program(batch)()
    entries = {out_id: (in_ids, fn) for out_id, in_ids, fn in loss.tape._entries}
    handed = tape_backward_by_node(loss)
    shares = {}

    def find(name, operand=None, table=None):
        """The outputs of the recorded ``name`` ops that the loss reached and
        that read ``operand`` as their second argument or ``table`` as their
        first, the longest stack first. Fills ``shares`` with each one's
        ``(input node id, gradient)`` pairs, from its op's backward."""
        found = [out for op, out, args in ops if op == name and out.node_id in handed
                 and (operand is None or args[1] is operand)
                 and (table is None or args[0] is table)]
        for out in found:
            if out.node_id not in shares:
                in_ids, fn = entries[out.node_id]
                shares[out.node_id] = list(zip(in_ids, fn(handed[out.node_id])))
        return sorted(found, key=lambda out: -out.shape[1])

    def terms(outs, leaf):
        return [g for out in outs for i, g in shares[out.node_id] if i == leaf.node_id]

    want = {}
    buckets = find("gru_sequence")
    for gate in ("update", "reset", "cand"):
        for part in ("in", "state"):
            leaf = leaves[f"gru_{part}_{gate}"]
            want[f"gru_{part}_{gate}"] = one_product(terms(buckets, leaf), leaf.shape)
        leaf = leaves[f"gru_bias_{gate}"]
        want[f"gru_bias_{gate}"] = running_sum(terms(buckets, leaf), leaf.shape)
    for name in ("visit_context", "word_proj"):
        leaf = leaves[name]
        want[name] = one_product(terms(find("matmul", leaf), leaf), leaf.shape)
    [head] = find("matmul", leaves["head_weight"])
    want["head_weight"] = np.asarray(terms([head], leaves["head_weight"])[0])
    want["head_bias"] = handed[head.node_id].sum(axis=(0, 1))

    want["word_embed"] = np.zeros(leaves["word_embed"].shape)
    for words in find("gather_rows", table=leaves["word_embed"]):
        for stack in find("gather_rows", table=words):
            n = stack.shape[1]
            tokens = np.stack([ex.note_tokens for ex in batch if len(ex.note_tokens) == n])
            np.add.at(want["word_embed"], tokens.ravel(),
                      handed[stack.node_id].reshape(tokens.size, -1))

    [visits] = {id(args[0]): args[0] for op, _, args in ops if op == "gru_sequence"}.values()
    g_visits = running_sum(terms(buckets, visits), visits.shape)
    probe = net._leaves(ad.Tape())
    h_c = net.graph_forward(probe, mode="train", update_stats=False)
    g_h_c = group_mean_gradient(h_c.shape, [idx for ex in batch for idx in ex.visit_codes],
                                g_visits)
    ad.fold_sum(ad.mul(h_c, ad.constant(g_h_c))).backward()
    for name, leaf in probe.items():
        want.setdefault(name, leaf.grad)
    return loss, leaves, want
