"""The GRU recurrence composed of autodiff ops: the oracle for ``gru_sequence``.

``autodiff.gru_sequence`` runs a bucket's whole recurrence as one tape entry.
Before it, ``FrozenScorer.encode_visits`` recorded each step as a gather, six
products and elementwise ops on (B, 1, .) stacks, and joined the states with
one concat per later step. That form is kept here, with the ``tanh`` op only
it used. The op's states must equal these bit for bit, and so must its
gradients: each summed in the tape's reverse-entry order.
"""

import numpy as np

from cgl import autodiff as ad
from cgl.autodiff import _emit, _lift
from cgl.model import attend

GATES = ("update", "reset", "cand")


def tanh(x) -> ad.Tensor:
    x = _lift(x)
    y = np.tanh(x.values)
    return _emit(x.tape, y, (x,), _tanh_backward, y)


def _tanh_backward(y, g):
    return (g * (1.0 - y * y),)


def gru_weights(leaves):
    """The nine GRU arrays of ``leaves`` in ``gru_sequence``'s order."""
    return [leaves[f"gru_{part}_{gate}"] for gate in GATES for part in ("in", "state", "bias")]


def gru_sequence(visits, positions, weights):
    """The (B, T, h) states, one composed step at a time from a zero state."""
    wz, uz, bz, wr, ur, br, wn, un, bn = weights
    n, steps = positions.shape
    h = ad.constant(np.zeros((n, 1, _lift(bz).values.size)))
    rows = None
    for t in range(steps):
        x = ad.gather_rows(visits, positions[:, t:t + 1])
        z = ad.sigmoid(ad.add(ad.add(ad.matmul(x, wz), ad.matmul(h, uz)), bz))
        r = ad.sigmoid(ad.add(ad.add(ad.matmul(x, wr), ad.matmul(h, ur)), br))
        cand = tanh(ad.add(ad.add(ad.matmul(x, wn), ad.matmul(ad.mul(r, h), un)), bn))
        h = ad.add(ad.mul(z, h), ad.mul(ad.sub(1.0, z), cand))
        rows = h if rows is None else ad.concat([rows, h], axis=1)
    return rows


def encode_visits(model, leaves, visits, positions):
    """``FrozenScorer.encode_visits`` with the composed recurrence: the
    (B, T, h) states, the (B, 1, T) attention and the (B, 1, h) o_v."""
    rows = gru_sequence(visits, positions, gru_weights(leaves))
    return rows, *attend(ad.matmul(rows, leaves["visit_context"]), rows)
