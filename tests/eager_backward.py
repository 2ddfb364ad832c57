"""The eager reverse sweep: the reference that ``Tape.backward`` must match.

It walks a tape the way ``Tape.backward`` did before contributions were
deferred: each contribution is made dense as soon as it arrives
(``np.asarray`` resolves a deferred one on its own, through the same
expression the op used to return) and added to the node's running sum in
sweep order. This reproduces the gradient bits of that earlier tape.
"""

import numpy as np

from cgl import autodiff as ad


def eager_backward(loss):
    """Backward over ``loss``'s tape; fills every leaf's ``grad`` like
    ``loss.backward()`` and returns ``(grads, sources)``: for every node that
    received gradient, its gradient and the ids of the nodes whose backward
    contributed to it."""
    tape = loss.tape
    if tape._spent:
        raise ad.TapeError("backward() ran twice on the same tape")
    tape._spent = True
    seed = np.ones_like(loss.values)
    grads = {loss.node_id: seed}
    sources = {loss.node_id: []}
    for out_id, in_ids, backward_fn in reversed(tape._entries):
        g = grads.get(out_id)
        if g is None:
            continue
        for in_id, gi in zip(in_ids, backward_fn(g)):
            if in_id is None or gi is None:
                continue
            gi = np.asarray(gi)
            have = grads.get(in_id)
            grads[in_id] = gi if have is None else have + gi
            sources.setdefault(in_id, []).append(out_id)
    loss.grad = seed
    for t in tape._leaves:
        g = grads.get(t.node_id)
        t.grad = np.zeros_like(t.values) if g is None else np.asarray(g, dtype=np.float64)
    tape._entries = []
    tape._leaves = []
    return grads, sources


def tape_backward_by_node(loss):
    """``loss.backward()``, returning the gradient the tape settled for every
    node that received one: what each op's backward was handed, and each
    tracked leaf's final ``grad``."""
    tape = loss.tape
    leaves = list(tape._leaves)
    seen = {}

    def observed(out_id, backward_fn):
        def backward(g):
            seen[out_id] = g
            return backward_fn(g)
        return backward

    tape._entries = [(out_id, in_ids, observed(out_id, fn))
                     for out_id, in_ids, fn in tape._entries]
    loss.backward()
    seen[loss.node_id] = loss.grad
    for t in leaves:
        seen[t.node_id] = t.grad
    return seen
