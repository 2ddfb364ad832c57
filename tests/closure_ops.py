"""The closure-based autodiff ops: the oracle for ``cgl.autodiff``'s ops.

These are the op definitions as they were before each op recorded a
module-level backward function bound to its saved operands: every call builds
a fresh closure, and ``add``, ``sub`` and ``mul`` pass lambdas to ``_binary``.
They record on the package's own :class:`~cgl.autodiff.Tape`, so a program
built from them runs through the same reverse sweep. Values and gradients of
the package's ops must equal theirs bit for bit.
"""

import math

import numpy as np
from scipy import sparse

from cgl.autodiff import (BatchNormState, DimensionError, NumericDomainError, Tape, TapeError,
                          Tensor, _Deferred)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tape_of(*tensors: Tensor) -> Tape | None:
    tape = None
    for t in tensors:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise TapeError("operands were recorded on different tapes")
    return tape


def _emit(tape: Tape | None, values, inputs, backward) -> Tensor:
    if tape is None:
        return Tensor(values)
    return tape.record(values, inputs, backward)


def _is_scalar_shape(shape: tuple[int, ...]) -> bool:
    return len(shape) <= 1 and math.prod(shape) == 1


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


def _binary(a, b, forward, grad_a, grad_b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if not _broadcast_ok(a.shape, b.shape):
        raise DimensionError(f"cannot broadcast shapes {a.shape} and {b.shape}")
    av, bv = a.values, b.values
    need_a, need_b = a.tracked, b.tracked

    def backward(g):
        return (_unbroadcast(grad_a(g, av, bv), av.shape) if need_a else None,
                _unbroadcast(grad_b(g, av, bv), bv.shape) if need_b else None)

    return _emit(_tape_of(a, b), forward(av, bv), (a, b), backward)


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


def sigmoid(x) -> Tensor:
    x = _lift(x)
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-x.values))

    def backward(g):
        return (g * y * (1.0 - y),)

    return _emit(_tape_of(x), y, (x,), backward)


def relu(x) -> Tensor:
    x = _lift(x)
    mask = x.values > 0.0

    def backward(g):
        return (g * mask,)

    return _emit(_tape_of(x), np.where(mask, x.values, 0.0), (x,), backward)


def log(x) -> Tensor:
    x = _lift(x)
    if x.values.size and np.min(x.values) <= 0.0:
        raise NumericDomainError("log of a non-positive value; clamp first")
    xv = x.values

    def backward(g):
        return (g / xv,)

    return _emit(_tape_of(x), np.log(xv), (x,), backward)


def clamp(x, lo: float, hi: float) -> Tensor:
    if not lo <= hi:
        raise ValueError(f"clamp bounds out of order: {lo} > {hi}")
    x = _lift(x)
    mask = (x.values >= lo) & (x.values <= hi)

    def backward(g):
        return (g * mask,)

    return _emit(_tape_of(x), np.clip(x.values, lo, hi), (x,), backward)


# ---------------------------------------------------------------------------
# linear algebra and shape ops


def matmul(a, b) -> Tensor:
    """Matrix product for 1-d/2-d operands; 1-d operands behave like numpy's
    (row vector on the left, column vector on the right, result squeezed)."""
    a, b = _lift(a), _lift(b)
    av, bv = a.values, b.values
    if av.ndim not in (1, 2) or bv.ndim not in (1, 2):
        raise DimensionError(f"matmul needs 1-d or 2-d operands, got {av.shape} and {bv.shape}")
    a2 = av if av.ndim == 2 else av[None, :]
    b2 = bv if bv.ndim == 2 else bv[:, None]
    if a2.shape[1] != b2.shape[0]:
        raise DimensionError(f"matmul inner dimensions disagree: {av.shape} x {bv.shape}")
    out2 = a2 @ b2
    out = out2
    if av.ndim == 1:
        out = out[0]
    if bv.ndim == 1:
        out = out[..., 0]
    need_a, need_b = a.tracked, b.tracked

    def backward(g):
        g2 = g.reshape(out2.shape)
        ga = (g2 @ b2.T).reshape(av.shape) if need_a else None
        gb = _Deferred(False, bv.shape, a2, g2) if need_b else None
        return ga, gb

    return _emit(_tape_of(a, b), out, (a, b), backward)


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
    need_v, need_x = values.tracked, x.tracked

    def backward(g):
        gv = gx = None
        if need_v:
            rows = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
            gv = np.einsum("ij,ij->i", g[rows], xv[pattern.indices])
        if need_x:
            gx = a.T @ g
        return gv, gx

    return _emit(_tape_of(values, x), a @ xv, (values, x), backward)


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

    def backward(g):
        s = (g * y).sum(axis=ax, keepdims=True)
        return (y * (g - s),)

    return _emit(_tape_of(x), y, (x,), backward)


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

    def backward(g):
        if ax is None:
            return (np.broadcast_to(g, xv.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, ax), xv.shape).copy(),)

    return _emit(_tape_of(x), xv.sum(axis=ax), (x,), backward)


def reduce_mean(x, axis: int | None = None) -> Tensor:
    x = _lift(x)
    xv = x.values
    ax = _check_axis(xv, axis)
    n = xv.size if ax is None else xv.shape[ax]
    if n == 0:
        raise ValueError("mean over a zero-length axis")

    def backward(g):
        if ax is None:
            return (np.broadcast_to(g / n, xv.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g / n, ax), xv.shape).copy(),)

    return _emit(_tape_of(x), xv.mean(axis=ax), (x,), backward)


def concat(a, b, axis: int = 0) -> Tensor:
    a, b = _lift(a), _lift(b)
    av, bv = a.values, b.values
    if av.ndim != bv.ndim:
        raise DimensionError(f"concat rank mismatch: {av.shape} vs {bv.shape}")
    ax = axis if axis >= 0 else av.ndim + axis
    if not 0 <= ax < av.ndim:
        raise DimensionError(f"concat axis {axis} invalid for shape {av.shape}")
    for d in range(av.ndim):
        if d != ax and av.shape[d] != bv.shape[d]:
            raise DimensionError(f"concat off-axis extents differ: {av.shape} vs {bv.shape}")
    boundary = av.shape[ax]

    def backward(g):
        ga, gb = np.split(g, [boundary], axis=ax)
        return ga, gb

    return _emit(_tape_of(a, b), np.concatenate([av, bv], axis=ax), (a, b), backward)


def reshape(x, shape) -> Tensor:
    x = _lift(x)
    xv = x.values

    def backward(g):
        return (g.reshape(xv.shape),)

    return _emit(_tape_of(x), xv.reshape(shape), (x,), backward)


def gather_rows(table, indices) -> Tensor:
    """Select rows of a 2-d table, or entries of a vector; backward
    scatter-adds, so repeated indices accumulate gradient. A table's
    scatter is deferred to the tape; a vector's is one ``bincount``."""
    table = _lift(table)
    tv = table.values
    if tv.ndim not in (1, 2):
        raise DimensionError(f"gather_rows needs a 1-d or 2-d table, got shape {tv.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise DimensionError("gather_rows indices must be a flat sequence")
    n = tv.shape[0]
    if idx.size:
        bad = idx[(idx < 0) | (idx >= n)]
        if bad.size:
            raise IndexError(f"row index {int(bad[0])} out of range for table with {n} rows")

    def backward(g):
        if tv.ndim == 1:
            return (np.bincount(idx, weights=g, minlength=n),)
        return (_Deferred(True, tv.shape, idx, g),)

    return _emit(_tape_of(table), tv[idx], (table,), backward)


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
    sv = scale.values
    n = xv.shape[0]

    if mode == "train":
        def backward(g):
            dxhat = g * sv
            dx = inv / n * (n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
            return dx, (g * xhat).sum(axis=0), g.sum(axis=0)
    else:
        def backward(g):
            return g * sv * inv, (g * xhat).sum(axis=0), g.sum(axis=0)

    return _emit(_tape_of(x, scale, shift), y, (x, scale, shift), backward)
