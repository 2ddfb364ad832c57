"""Reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tape` records one forward pass as a Wengert list; ``Tape.backward``
walks the list once in reverse and accumulates gradients into the tracked
leaf tensors. Tapes are single-use: a second backward raises :class:`TapeError`,
and backward releases the recorded entries, so each intermediate gradient is
freed once it has been propagated. Ops compute no gradient for an untracked
operand.

An entry is ``(output id, input ids, backward)``. ``backward`` is a
module-level function bound by ``functools.partial`` to what the gradient
needs, never a closure built per call: a closure adds a function object and
its cells to every entry, and a training step records thousands of entries,
so those objects kept the cyclic garbage collector busy for a large share of
the run.

Ops defer one kind of gradient, a product: ``matmul``'s for a shared 1-d or
2-d right operand (kept as the left operand's rows and the output gradient's
rows), and ``gru_sequence``'s for its weights. The tape resolves a node's
deferred products once, when it first reads that node's gradient: one GEMM
over the stacked rows, added to the node's dense sum, with the bits of
resolving a single product alone. Every scatter-add (``gather_rows``,
``group_mean``, the visits of ``gru_sequence``) runs when its op's backward
runs, through ``_scatter``.

Broadcasting in the binary elementwise ops is restricted to the two cases the
models here actually need: a scalar operand, or an operand whose shape is a
trailing suffix of the other's (a bias row added to a matrix). Anything else
raises :class:`DimensionError` instead of silently broadcasting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce
from operator import attrgetter

import numpy as np
from scipy import sparse

__all__ = [
    "Tensor",
    "Tape",
    "BatchNormState",
    "DimensionError",
    "NumericDomainError",
    "TapeError",
    "constant",
    "add",
    "sub",
    "mul",
    "sigmoid",
    "relu",
    "log",
    "clamp",
    "matmul",
    "spmm",
    "softmax",
    "reduce_sum",
    "reduce_mean",
    "concat",
    "reshape",
    "gather_rows",
    "fold_sum",
    "group_mean",
    "gru_sequence",
    "batchnorm",
    "check_gradients",
    "GradientCheckReport",
]


_FLOAT64 = np.dtype(np.float64)
_node_id = attrgetter("node_id")

# Column block width of a stacked vector-matrix product (see matmul). A block
# of a 400-row right operand is 400 x 256 float64 = 800 KB, which stays in a
# 2 MB L2 cache while every item of the stack reads it.
COLUMN_BLOCK = 256


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class NumericDomainError(ValueError):
    """Operand values lie outside the mathematical domain of the op."""


class TapeError(RuntimeError):
    """Tape misuse: reuse after backward, or mixing tensors across tapes."""


class Tensor:
    """Dense float64 array, optionally recorded on a tape.

    Tensors created through :meth:`Tape.leaf` are tracked: after a backward
    pass their ``grad`` holds d(loss)/d(tensor). Tensors built by
    :func:`constant` (or by ops whose operands are all constants) never
    accumulate gradient.
    """

    __slots__ = ("values", "grad", "tape", "node_id")

    def __init__(self, values, tape: "Tape | None" = None, node_id: int | None = None):
        if type(values) is not np.ndarray or values.dtype is not _FLOAT64:
            values = np.asarray(values, dtype=np.float64)
        self.values = values
        self.grad: np.ndarray | None = None
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def tracked(self) -> bool:
        return self.node_id is not None

    def item(self) -> float:
        if self.values.size != 1:
            raise DimensionError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def backward(self) -> None:
        if self.tape is None:
            raise TapeError("backward() on a tensor that is not on any tape")
        self.tape.backward(self)

    def __repr__(self) -> str:
        kind = "tracked" if self.tracked else "constant"
        return f"Tensor(shape={self.shape}, {kind})"


def constant(values) -> Tensor:
    """An untracked tensor; gradients never flow into it."""
    return Tensor(values)


@dataclass(eq=False, slots=True)
class _Deferred:
    """One product gradient kept as two factors until the tape resolves it:
    ``left.T @ rows`` reshaped to ``shape``. ``np.asarray`` resolves it on its
    own."""

    shape: tuple[int, ...]
    left: np.ndarray
    rows: np.ndarray

    def __array__(self, dtype=None, copy=None):
        return _resolve([self])


def _resolve(parts: list[_Deferred]) -> np.ndarray:
    """The sum of deferred products: one GEMM over their stacked rows."""
    first = parts[0]
    if len(parts) == 1:
        left, rows = first.left, first.rows
    else:
        left = np.concatenate([p.left for p in parts])
        rows = np.concatenate([p.rows for p in parts])
    return (left.T @ rows).reshape(first.shape)


def _settle(dense: np.ndarray | None, parts: list[_Deferred] | None) -> np.ndarray | None:
    """A node's gradient: its dense sum plus its deferred products."""
    if not parts:
        return dense
    g = _resolve(parts)
    return g if dense is None else dense + g


def _scatter(shape: tuple[int, ...], idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A zero array of ``shape`` with each of ``rows`` added at its row index
    in the flat ``idx``, in order: the one scatter-add of every gradient."""
    out = np.zeros(shape)
    np.add.at(out, idx, rows)
    return out


class Tape:
    """Wengert list for a single forward pass."""

    def __init__(self):
        self._entries: list[tuple[int, tuple[int | None, ...], object]] = []
        self._leaves: list[Tensor] = []
        self._count = 0
        self._spent = False

    def leaf(self, values) -> Tensor:
        """Register a tracked input; its grad is populated by backward()."""
        if self._spent:
            raise TapeError("tape already consumed by backward()")
        t = Tensor(values, self, self._count)
        self._count += 1
        self._leaves.append(t)
        return t

    def record(self, values, inputs: tuple[Tensor, ...], backward) -> Tensor:
        """Append one op. ``backward(dout)`` returns per-input gradients
        aligned with ``inputs`` (``None`` for inputs that need none); a
        gradient may be a deferred contribution instead of an array."""
        if self._spent:
            raise TapeError("tape already consumed by backward()")
        out = Tensor(values, self, self._count)
        self._count += 1
        self._entries.append((out.node_id, tuple(map(_node_id, inputs)), backward))
        return out

    def backward(self, loss: Tensor) -> None:
        if self._spent:
            raise TapeError("backward() ran twice on the same tape")
        if loss.tape is not self:
            raise TapeError("loss tensor was recorded on a different tape")
        if loss.values.size != 1:
            raise DimensionError(f"backward() needs a scalar loss, got shape {loss.shape}")
        self._spent = True
        seed = np.ones_like(loss.values)
        grads: dict[int, np.ndarray] = {loss.node_id: seed}
        deferred: dict[int, list[_Deferred]] = {}
        for out_id, in_ids, backward_fn in reversed(self._entries):
            g = grads.pop(out_id, None)
            if out_id in deferred:
                g = _settle(g, deferred.pop(out_id))
            if g is None:  # branch that never reached the loss
                continue
            for in_id, gi in zip(in_ids, backward_fn(g)):
                if gi is None or in_id is None:
                    continue
                if type(gi) is _Deferred:
                    parts = deferred.get(in_id)
                    if parts is None:
                        deferred[in_id] = [gi]
                    else:
                        parts.append(gi)
                    continue
                have = grads.get(in_id)
                grads[in_id] = gi if have is None else have + gi
        loss.grad = seed
        for t in self._leaves:
            g = _settle(grads.get(t.node_id), deferred.get(t.node_id))
            t.grad = np.zeros_like(t.values) if g is None else np.asarray(g, dtype=np.float64)
        # Tensors point at their tape; dropping the tape's references back to
        # them breaks the cycle, so the tape is freed without the collector.
        self._entries = []
        self._leaves = []


# ---------------------------------------------------------------------------
# op plumbing: each op records its ``_*_backward`` function through ``_emit``


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tape_of(a: Tensor, *rest: Tensor) -> Tape | None:
    """The tape the operands share; None when none of them is tracked."""
    tape = a.tape
    for t in rest:
        if t.tape is not None and t.tape is not tape:
            if tape is not None:
                raise TapeError("operands were recorded on different tapes")
            tape = t.tape
    return tape


def _emit(tape: Tape | None, values, inputs, backward, *saved) -> Tensor:
    """The op's output; on a tape, recorded with ``backward`` bound to ``saved``."""
    if tape is None:
        return Tensor(values)
    return tape.record(values, inputs, partial(backward, *saved))


def _is_scalar_shape(shape: tuple[int, ...]) -> bool:
    return shape == () or shape == (1,)


def _broadcast_ok(sa: tuple[int, ...], sb: tuple[int, ...]) -> bool:
    if sa == sb:
        return True
    if _is_scalar_shape(sa) or _is_scalar_shape(sb):
        return True
    if len(sb) < len(sa) and sa[len(sa) - len(sb):] == sb:
        return True
    if len(sa) < len(sb) and sb[len(sb) - len(sa):] == sa:
        return True
    return False


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    if _is_scalar_shape(shape):
        return grad.sum().reshape(shape)
    extra = grad.ndim - len(shape)
    return grad.sum(axis=tuple(range(extra)))


def _binary(ufunc, a, b) -> Tensor:
    """``ufunc`` (add, subtract or multiply) under the restricted broadcast."""
    a, b = _lift(a), _lift(b)
    av, bv = a.values, b.values
    if av.shape != bv.shape and not _broadcast_ok(av.shape, bv.shape):
        raise DimensionError(f"cannot broadcast shapes {av.shape} and {bv.shape}")
    return _emit(_tape_of(a, b), ufunc(av, bv), (a, b), _binary_backward,
                 ufunc, av, bv, a.tracked, b.tracked)


def _binary_backward(ufunc, av, bv, need_a, need_b, g):
    ga = gb = None
    if need_a:
        ga = _unbroadcast(g * bv if ufunc is np.multiply else g, av.shape)
    if need_b:
        if ufunc is np.multiply:
            gb = g * av
        else:
            gb = -g if ufunc is np.subtract else g
        gb = _unbroadcast(gb, bv.shape)
    return ga, gb


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b) -> Tensor:
    return _binary(np.add, a, b)


def sub(a, b) -> Tensor:
    return _binary(np.subtract, a, b)


def mul(a, b) -> Tensor:
    return _binary(np.multiply, a, b)


def sigmoid(x) -> Tensor:
    x = _lift(x)
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-x.values))
    return _emit(x.tape, y, (x,), _sigmoid_backward, y)


def _sigmoid_backward(y, g):
    return (g * y * (1.0 - y),)


def relu(x) -> Tensor:
    x = _lift(x)
    mask = x.values > 0.0
    return _emit(x.tape, np.where(mask, x.values, 0.0), (x,), _mask_backward, mask)


def _mask_backward(mask, g):
    return (g * mask,)


def log(x) -> Tensor:
    x = _lift(x)
    xv = x.values
    if xv.size and np.min(xv) <= 0.0:
        raise NumericDomainError("log of a non-positive value; clamp first")
    return _emit(x.tape, np.log(xv), (x,), _log_backward, xv)


def _log_backward(xv, g):
    return (g / xv,)


def clamp(x, lo: float, hi: float) -> Tensor:
    if not lo <= hi:
        raise ValueError(f"clamp bounds out of order: {lo} > {hi}")
    x = _lift(x)
    mask = (x.values >= lo) & (x.values <= hi)
    return _emit(x.tape, np.clip(x.values, lo, hi), (x,), _mask_backward, mask)


# ---------------------------------------------------------------------------
# linear algebra and shape ops


def matmul(a, b) -> Tensor:
    """Matrix product for 1-d/2-d operands; 1-d operands behave like numpy's
    (row vector on the left, column vector on the right, result squeezed).

    A 3-d left operand is a stack of B matrices: ``(B, m, k) @ (k, n)``
    multiplies each by the shared right operand, and ``(B, m, k) @ (B, k, n)``
    multiplies item by item. numpy runs the same kernel on each item of a stack
    as on a lone matrix, so a stacked product has the bits of B separate ones;
    the row-batched ``(B*m, k) @ (k, n)`` does not. The shared right operand's
    gradient is one deferred contribution over all B*m stacked rows.

    A stack of B > 1 row vectors, ``(B, 1, k) @ (k, n)``, with n above two
    blocks of ``COLUMN_BLOCK`` runs one column block at a time, so all B items
    read each block from cache instead of the whole right operand each. With
    one BLAS thread (``CGL_THREADS=1``) this keeps the bits: each item still
    runs its own GEMV on the same columns, and the GEMV kernel forms each
    output column from that column's k entries alone, in the same order. The
    last block takes the remainder, so no block is one column wide, where
    numpy would call a dot product instead of a GEMV. Several BLAS threads
    split a GEMV's columns by the call's width, so there a column's last bits
    can depend on the blocking. Stacks of matrices (m > 1) take GEMM, whose
    tiling depends on n, and are not blocked.
    """
    a, b = _lift(a), _lift(b)
    av, bv = a.values, b.values
    shared = 0 < av.ndim <= 3 and 0 < bv.ndim <= 2
    paired = av.ndim == bv.ndim == 3 and av.shape[0] == bv.shape[0]
    if not (shared or paired):
        raise DimensionError(f"matmul needs 1-d or 2-d operands, or a stacked 3-d left "
                             f"operand, got {av.shape} and {bv.shape}")
    a2 = av if av.ndim > 1 else av[None, :]
    b2 = bv if bv.ndim > 1 else bv[:, None]
    if a2.shape[-1] != b2.shape[-2]:
        raise DimensionError(f"matmul inner dimensions disagree: {av.shape} x {bv.shape}")
    out = _product(a2, b2)
    if av.ndim == 1:
        out = out[0]
    if bv.ndim == 1:
        out = out[..., 0]
    return _emit(_tape_of(a, b), out, (a, b), _matmul_backward,
                 av, bv, a2, b2, a.tracked, b.tracked)


def _product(a2, b2):
    """``a2 @ b2``, column block by column block for a wide stack of row vectors."""
    n = b2.shape[-1]
    if not (a2.ndim == 3 and b2.ndim == 2 and a2.shape[0] > 1 and a2.shape[1] == 1
            and n > 2 * COLUMN_BLOCK):
        return a2 @ b2
    out = np.empty((a2.shape[0], 1, n))
    bounds = [*range(0, n - COLUMN_BLOCK, COLUMN_BLOCK), n]
    for lo, hi in zip(bounds, bounds[1:]):
        np.matmul(a2, b2[:, lo:hi], out=out[:, :, lo:hi])
    return out


def _matmul_backward(av, bv, a2, b2, need_a, need_b, g):
    g2 = g.reshape(*a2.shape[:-1], b2.shape[-1])
    ga = (g2 @ np.swapaxes(b2, -1, -2)).reshape(av.shape) if need_a else None
    if not need_b:
        return ga, None
    if b2.ndim == 3:
        return ga, np.swapaxes(a2, -1, -2) @ g2
    if a2.ndim == 3:
        a2, g2 = a2.reshape(-1, a2.shape[-1]), g2.reshape(-1, g2.shape[-1])
    return ga, _Deferred(bv.shape, a2, g2)


def spmm(pattern, values, x) -> Tensor:
    """Sparse-dense product A @ x, where A is the CSR ``pattern`` with its
    stored entries replaced by ``values`` (one per entry, in storage order).

    The pattern is fixed; ``values`` and the 2-d ``x`` may be tracked. The
    gradient is A^T g for ``x`` and g[row] . x[col] for each stored entry.
    """
    if not (sparse.issparse(pattern) and pattern.format == "csr"):
        raise DimensionError("spmm needs a CSR pattern")
    values, x = _lift(values), _lift(x)
    vv, xv = values.values, x.values
    if vv.shape != (pattern.nnz,):
        raise DimensionError(f"spmm needs {pattern.nnz} values, got shape {vv.shape}")
    if xv.ndim != 2 or xv.shape[0] != pattern.shape[1]:
        raise DimensionError(f"spmm operand {xv.shape} does not fit a {pattern.shape} matrix")
    a = sparse.csr_matrix((vv, pattern.indices, pattern.indptr), shape=pattern.shape)
    return _emit(_tape_of(values, x), a @ xv, (values, x), _spmm_backward,
                 a, xv, values.tracked, x.tracked)


def _spmm_backward(a, xv, need_v, need_x, g):
    gv = gx = None
    if need_v:
        rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
        gv = np.einsum("ij,ij->i", g[rows], xv[a.indices])
    if need_x:
        gx = a.T @ g
    return gv, gx


def softmax(x, axis: int = -1) -> Tensor:
    x = _lift(x)
    xv = x.values
    if xv.ndim == 0:
        raise DimensionError("softmax needs at least one axis")
    ax = axis if axis >= 0 else xv.ndim + axis
    if not 0 <= ax < xv.ndim:
        raise DimensionError(f"softmax axis {axis} invalid for shape {xv.shape}")
    if xv.shape[ax] == 0:
        raise DimensionError("softmax over an empty axis")
    shifted = xv - xv.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=ax, keepdims=True)
    return _emit(x.tape, y, (x,), _softmax_backward, y, ax)


def _softmax_backward(y, ax, g):
    s = (g * y).sum(axis=ax, keepdims=True)
    return (y * (g - s),)


def _check_axis(xv: np.ndarray, axis: int | None) -> int | None:
    if axis is None:
        return None
    ax = axis if axis >= 0 else xv.ndim + axis
    if not 0 <= ax < xv.ndim:
        raise DimensionError(f"axis {axis} invalid for shape {xv.shape}")
    return ax


def reduce_sum(x, axis: int | None = None) -> Tensor:
    x = _lift(x)
    xv = x.values
    ax = _check_axis(xv, axis)
    return _emit(x.tape, xv.sum(axis=ax), (x,), _spread_backward, xv, ax, 1)


def reduce_mean(x, axis: int | None = None) -> Tensor:
    x = _lift(x)
    xv = x.values
    ax = _check_axis(xv, axis)
    n = xv.size if ax is None else xv.shape[ax]
    if n == 0:
        raise ValueError("mean over a zero-length axis")
    return _emit(x.tape, xv.mean(axis=ax), (x,), _spread_backward, xv, ax, n)


def _spread_backward(xv, ax, n, g):
    """A reduction's gradient: ``g / n`` copied over the reduced axis."""
    if n != 1:
        g = g / n
    if ax is not None:
        g = np.expand_dims(g, ax)
    return (np.broadcast_to(g, xv.shape).copy(),)


def concat(parts, axis: int = 0) -> Tensor:
    """The tensors of ``parts`` joined along ``axis``, as ``np.concatenate``:
    one tape entry, whose backward is one ``np.split`` at the parts'
    boundaries. A one-part list returns its tensor and records nothing."""
    parts = tuple(map(_lift, parts))
    if not parts:
        raise ValueError("concat needs at least one tensor")
    shape = parts[0].values.shape
    ax = axis if axis >= 0 else len(shape) + axis
    if not 0 <= ax < len(shape):
        raise DimensionError(f"concat axis {axis} invalid for shape {shape}")
    for p in parts[1:]:
        other = p.values.shape
        if len(other) != len(shape):
            raise DimensionError(f"concat rank mismatch: {shape} vs {other}")
        if any(d != ax and n != m for d, (n, m) in enumerate(zip(shape, other))):
            raise DimensionError(f"concat off-axis extents differ: {shape} vs {other}")
    if len(parts) == 1:
        return parts[0]
    bounds = np.cumsum([p.values.shape[ax] for p in parts[:-1]])
    return _emit(_tape_of(*parts), np.concatenate([p.values for p in parts], axis=ax), parts,
                 _concat_backward, bounds, ax)


def _concat_backward(bounds, ax, g):
    return tuple(np.split(g, bounds, axis=ax))


def reshape(x, shape) -> Tensor:
    x = _lift(x)
    xv = x.values
    return _emit(x.tape, xv.reshape(shape), (x,), _reshape_backward, xv)


def _reshape_backward(xv, g):
    return (g.reshape(xv.shape),)


def _row_indices(op: str, indices, n: int, flat: bool = True) -> np.ndarray:
    """``indices`` as an intp array of row numbers below ``n``; flat unless
    ``flat`` is false."""
    idx = np.asarray(indices, dtype=np.intp)
    if flat and idx.ndim != 1:
        raise DimensionError(f"{op} indices must be a flat sequence")
    if idx.size:
        bad = idx[(idx < 0) | (idx >= n)]
        if bad.size:
            raise IndexError(f"row index {int(bad[0])} out of range for table with {n} rows")
    return idx


def gather_rows(table, indices) -> Tensor:
    """Select rows of a table, or entries of a vector, as ``table[indices]``:
    the output has the shape of ``indices`` followed by a table row's shape, so
    a (B, 1) index array gives a (B, 1, d) stack, and a flat one on a (N, 1, d)
    table gives one too. Backward scatter-adds in index order, so repeated
    indices accumulate gradient; each gather's gradient is its own scatter."""
    table = _lift(table)
    tv = table.values
    if tv.ndim == 0:
        raise DimensionError("gather_rows needs a table or a vector, got a scalar")
    idx = _row_indices("gather_rows", indices, tv.shape[0], flat=False)
    return _emit(table.tape, tv[idx], (table,), _gather_backward, tv, idx.ravel())


def _gather_backward(tv, idx, g):
    return (_scatter(tv.shape, idx, g.reshape(idx.size, *tv.shape[1:])),)


def group_mean(table, groups) -> Tensor:
    """Row ``i`` is the mean of the rows of the 2-d ``table`` that
    ``groups[i]`` lists: one op for what ``reduce_mean(gather_rows(table,
    group), axis=0)`` computes for each group, with the same bits.

    The forward is one CSR row sum, in each group's index order, divided by
    the group's size. The gradient is one scatter into ``table``, the later
    groups first: it sums as one gather of every group's rows in that order.
    """
    table = _lift(table)
    tv = table.values
    if tv.ndim != 2:
        raise DimensionError(f"group_mean needs a 2-d table, got shape {tv.shape}")
    if not len(groups):
        raise ValueError("group_mean needs at least one group")
    idx = _row_indices("group_mean", np.concatenate(groups), tv.shape[0])
    counts = np.fromiter(map(len, groups), dtype=np.intp, count=len(groups))
    if not counts.all():
        raise ValueError("mean over an empty group")
    indptr = np.zeros(counts.size + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    members = sparse.csr_matrix((np.ones(idx.size), idx, indptr),
                                shape=(counts.size, tv.shape[0]))
    return _emit(table.tape, (members @ tv) / counts[:, None], (table,), _group_mean_backward,
                 tv.shape, idx, indptr)


def _group_mean_backward(shape, idx, indptr, g):
    counts = np.diff(indptr)
    later_first = np.concatenate(np.split(idx, indptr[1:-1])[::-1])
    rows = np.repeat((g / counts[:, None])[::-1], counts[::-1], axis=0)
    return (_scatter(shape, later_first, rows),)


def gru_sequence(visits, positions, weights) -> Tensor:
    """The (B, T, h) GRU states of B sequences of T rows of the 2-d ``visits``
    (row b of the (B, T) ``positions`` lists sequence b's rows), as one op.
    ``weights`` are the update, reset and candidate gates' (d, h) input weight,
    (h, h) state weight and (h,) bias. From a zero state each step runs
    z = sig(xW+hU+b), r = sig(xW'+hU'+b'), n = tanh(xW''+(r*h)U''+b''),
    h' = z*h + (1-z)*n on (B, 1, .) stacks with the numpy calls of those ops,
    in their order, so the states keep their bits. The backward (BPTT) gives
    the tape what those ops' backwards would, in their order: per weight one
    deferred product over every step's rows, for ``visits`` one scatter, last
    step first, and per step one sum per bias, an input once per step."""
    visits, weights = _lift(visits), tuple(map(_lift, weights))
    xv, wv = visits.values, [w.values for w in weights]
    idx, hd = np.asarray(positions, dtype=np.intp), wv[2].size
    if (xv.ndim != 2 or idx.ndim != 2 or not idx.shape[1]
            or [w.shape for w in wv] != [(xv.shape[1], hd), (hd, hd), (hd,)] * 3):
        raise DimensionError(f"gru_sequence needs (N, d) rows, (B, T > 0) positions and 9 "
                             f"gate weights, got {xv.shape}, {idx.shape}")
    _row_indices("gru_sequence", idx, len(xv), flat=False)
    wz, uz, bz, wr, ur, br, wn, un, bn = wv
    h = np.zeros((idx.shape[0], 1, hd))
    states, zs, rs, ns = (np.empty((*idx.shape, hd)) for _ in range(4))
    with np.errstate(over="ignore"):  # as in sigmoid
        for t in range(idx.shape[1]):
            x = xv[idx[:, t:t + 1]]
            z = 1.0 / (1.0 + np.exp(-((_product(x, wz) + _product(h, uz)) + bz)))
            r = 1.0 / (1.0 + np.exp(-((_product(x, wr) + _product(h, ur)) + br)))
            n = np.tanh((_product(x, wn) + _product(r * h, un)) + bn)
            h = z * h + (1.0 - z) * n
            states[:, t:t + 1], zs[:, t:t + 1], rs[:, t:t + 1], ns[:, t:t + 1] = h, z, r, n
    inputs = (visits, *weights[0:2], *weights[3:5], *weights[6:8],
              *weights[2::3] * idx.shape[1])
    return _emit(_tape_of(visits, *weights), states, inputs, _gru_backward,
                 xv, idx, wv, states, zs, rs, ns)


def _gru_backward(xv, idx, wv, states, zs, rs, ns, g):
    wz, uz, _, wr, ur, _, wn, un, _ = wv
    b, steps, hd = states.shape
    prev = np.concatenate([np.zeros((b, 1, hd)), states[:, :-1]], axis=1)
    pre = np.empty((3, steps, b, 1, hd))  # z, r and n pre-activation gradients
    carry = []
    for i, t in enumerate(reversed(range(steps))):
        z, r, n, h = zs[:, t:t + 1], rs[:, t:t + 1], ns[:, t:t + 1], prev[:, t:t + 1]
        # terms in the composed steps' tape order: its concat of the states met
        # the first state before the next step's ops did, later states after
        gh = reduce(np.add, [g[:, t:t + 1], *carry] if t == 0 else [*carry, g[:, t:t + 1]])
        gn = gh * (1.0 - z) * (1.0 - n * n)
        gz = (-(gh * n) + gh * h) * z * (1.0 - z)
        grh = gn @ un.T
        gr = grh * h * r * (1.0 - r)
        carry = [gh * z, grh * r, gr @ ur.T, gz @ uz.T] if t else []
        pre[0, i], pre[1, i], pre[2, i] = gz, gr, gn
    gz, gr, gn = pre.reshape(3, -1, 1, hd)  # (steps * B) stacks, last step first
    x, hs, rh = (a[:, ::-1].swapaxes(0, 1).reshape(-1, a.shape[2])
                 for a in (xv[idx], prev, rs * prev))
    return (_scatter(xv.shape, idx[:, ::-1].T.ravel(),
                     ((gn @ wn.T + gr @ wr.T) + gz @ wz.T)[:, 0]),
            _Deferred(wz.shape, x, gz[:, 0]), _Deferred(uz.shape, hs, gz[:, 0]),
            _Deferred(wr.shape, x, gr[:, 0]), _Deferred(ur.shape, hs, gr[:, 0]),
            _Deferred(wn.shape, x, gn[:, 0]), _Deferred(un.shape, rh, gn[:, 0]),
            *pre.sum(axis=(2, 3)).swapaxes(0, 1).reshape(-1, hd))


def fold_sum(x) -> Tensor:
    """The entries of ``x``, flattened, summed left to right.

    ``((x0 + x1) + x2) + ...`` has the bits of a chain of scalar ``add`` ops,
    which a pairwise ``reduce_sum`` loses once there are 8 or more terms. Each
    entry's gradient is the output's gradient, as through the chain.
    """
    x = _lift(x)
    xv = x.values
    if xv.size == 0:
        raise ValueError("fold_sum over no entries")
    return _emit(x.tape, np.add.accumulate(xv.ravel())[-1], (x,), _fold_backward, xv.shape)


def _fold_backward(shape, g):
    return (np.full(shape, g),)


# ---------------------------------------------------------------------------
# batch normalization


class BatchNormState:
    """Running statistics for one batch-normalized feature block.

    Normalization uses the biased batch variance; running statistics follow
    ``running = momentum * running + (1 - momentum) * batch``.
    """

    def __init__(self, dim: int, eps: float = 1e-5, momentum: float = 0.9):
        self.running_mean = np.zeros(dim, dtype=np.float64)
        self.running_var = np.ones(dim, dtype=np.float64)
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.steps = 0


def batchnorm(x, scale, shift, state: BatchNormState, mode: str = "train",
              update: bool = True) -> Tensor:
    """Column-wise batch normalization with learned scale and shift.

    ``train`` normalizes with batch statistics (and updates the running ones
    unless ``update`` is false); ``infer`` uses the running statistics and
    requires at least one prior training update.
    """
    x, scale, shift = _lift(x), _lift(scale), _lift(shift)
    xv = x.values
    if xv.ndim != 2:
        raise DimensionError(f"batchnorm needs a 2-d input, got shape {xv.shape}")
    d = xv.shape[1]
    if scale.shape != (d,) or shift.shape != (d,):
        raise DimensionError(
            f"batchnorm scale/shift must have shape ({d},), got {scale.shape} and {shift.shape}")
    if mode == "train":
        if xv.shape[0] < 2:
            raise ValueError("batchnorm training needs at least 2 rows")
        mu = xv.mean(axis=0)
        var = xv.var(axis=0)
        if update:
            m = state.momentum
            state.running_mean = m * state.running_mean + (1.0 - m) * mu
            state.running_var = m * state.running_var + (1.0 - m) * var
            state.steps += 1
    elif mode == "infer":
        if state.steps == 0:
            raise RuntimeError("batchnorm inference before any training update")
        mu = state.running_mean
        var = state.running_var
    else:
        raise ValueError(f"unknown batchnorm mode {mode!r}")

    inv = 1.0 / np.sqrt(var + state.eps)
    xhat = (xv - mu) * inv
    y = xhat * scale.values + shift.values
    backward = _batchnorm_train_backward if mode == "train" else _batchnorm_infer_backward
    return _emit(_tape_of(x, scale, shift), y, (x, scale, shift), backward,
                 scale.values, inv, xhat)


def _batchnorm_train_backward(sv, inv, xhat, g):
    n = xhat.shape[0]
    dxhat = g * sv
    dx = inv / n * (n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
    return dx, (g * xhat).sum(axis=0), g.sum(axis=0)


def _batchnorm_infer_backward(sv, inv, xhat, g):
    return g * sv * inv, (g * xhat).sum(axis=0), g.sum(axis=0)


# ---------------------------------------------------------------------------
# gradient verification


@dataclass
class ArrayCheck:
    name: str
    entries_checked: int
    max_rel_err: float
    worst_index: int
    autodiff_grad: float
    fd_grad: float


@dataclass
class GradientCheckReport:
    step: float
    max_rel_err: float
    arrays: dict[str, ArrayCheck] = field(default_factory=dict)

    def summary(self) -> str:
        lines = [f"gradient check (central differences, step={self.step:g})"]
        for chk in self.arrays.values():
            lines.append(
                f"  {chk.name}: max rel err {chk.max_rel_err:.3e} over "
                f"{chk.entries_checked} entries (ad={chk.autodiff_grad:.6g}, "
                f"fd={chk.fd_grad:.6g} at flat index {chk.worst_index})")
        lines.append(f"  overall max rel err {self.max_rel_err:.3e}")
        return "\n".join(lines)


def check_gradients(f, params, step: float = 1e-6, sample: int = 100,
                    seed: int = 0) -> GradientCheckReport:
    """Compare autodiff gradients against central finite differences.

    ``f()`` must rebuild the computation on a fresh tape from the *current*
    contents of ``params`` and return ``(loss, leaves)``, where ``loss`` is a
    scalar tensor and ``leaves`` maps each parameter name to its leaf tensor.
    ``params`` maps names to float64 arrays; they are perturbed in place and
    restored. Arrays larger than ``sample`` entries are spot-checked on a
    seeded random subset. Relative error uses the denominator
    ``max(|g_fd|, |g_ad|, 1e-8)``.
    """
    if step <= 0:
        raise ValueError("finite-difference step must be positive")
    loss, leaves = f()
    if not isinstance(loss, Tensor) or loss.values.size != 1:
        raise ValueError("f must return a scalar loss tensor")
    loss.backward()
    ad_grads = {}
    for name, arr in params.items():
        leaf = leaves.get(name)
        if leaf is None or leaf.grad is None:
            ad_grads[name] = np.zeros_like(arr)
        else:
            ad_grads[name] = np.asarray(leaf.grad, dtype=np.float64)

    rng = np.random.default_rng(seed)
    report = GradientCheckReport(step=step, max_rel_err=0.0)
    for name, arr in params.items():
        flat = arr.reshape(-1)
        size = flat.size
        if size == 0:
            continue
        if size <= sample:
            picks = np.arange(size)
        else:
            picks = np.sort(rng.choice(size, size=sample, replace=False))
        ad_flat = ad_grads[name].reshape(-1)
        worst = ArrayCheck(name, len(picks), -1.0, int(picks[0]), 0.0, 0.0)
        for ix in picks:
            orig = flat[ix]
            flat[ix] = orig + step
            lp = f()[0].item()
            flat[ix] = orig - step
            lm = f()[0].item()
            flat[ix] = orig
            g_fd = (lp - lm) / (2.0 * step)
            g_ad = float(ad_flat[ix])
            rel = abs(g_fd - g_ad) / max(abs(g_fd), abs(g_ad), 1e-8)
            if rel > worst.max_rel_err:
                worst = ArrayCheck(name, len(picks), rel, int(ix), g_ad, g_fd)
        report.arrays[name] = worst
        report.max_rel_err = max(report.max_rel_err, worst.max_rel_err)
    return report
