"""Reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tape` records one forward pass as a Wengert list; ``Tape.backward``
walks the list once in reverse and accumulates gradients into the tracked
leaf tensors. Tapes are single-use: a second backward raises :class:`TapeError`,
and backward releases the recorded entries, so each intermediate gradient is
freed once it has been propagated. Ops compute no gradient for an untracked
operand.

Broadcasting in the binary elementwise ops is restricted to the two cases the
models here actually need: a scalar operand, or an operand whose shape is a
trailing suffix of the other's (a bias row added to a matrix). Anything else
raises :class:`DimensionError` instead of silently broadcasting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
    "tanh",
    "relu",
    "log",
    "clamp",
    "matmul",
    "softmax",
    "reduce_sum",
    "reduce_mean",
    "concat",
    "reshape",
    "gather_rows",
    "batchnorm",
    "check_gradients",
    "GradientCheckReport",
]


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
        self.values = np.asarray(values, dtype=np.float64)
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

    # Operator sugar; plain scalars and arrays are lifted to constants.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __repr__(self) -> str:
        kind = "tracked" if self.tracked else "constant"
        return f"Tensor(shape={self.shape}, {kind})"


def constant(values) -> Tensor:
    """An untracked tensor; gradients never flow into it."""
    return Tensor(values)


class Tape:
    """Wengert list for a single forward pass."""

    def __init__(self):
        self._entries: list[tuple[int, tuple[int | None, ...], object]] = []
        self._leaves: list[Tensor] = []
        self._count = 0
        self._spent = False

    def _fresh_id(self) -> int:
        self._count += 1
        return self._count - 1

    def leaf(self, values) -> Tensor:
        """Register a tracked input; its grad is populated by backward()."""
        if self._spent:
            raise TapeError("tape already consumed by backward()")
        t = Tensor(values, self, self._fresh_id())
        self._leaves.append(t)
        return t

    def record(self, values, inputs: tuple[Tensor, ...], backward) -> Tensor:
        """Append one op. ``backward(dout)`` returns per-input gradients
        aligned with ``inputs`` (``None`` for inputs that need none)."""
        if self._spent:
            raise TapeError("tape already consumed by backward()")
        out = Tensor(values, self, self._fresh_id())
        self._entries.append((out.node_id, tuple(t.node_id for t in inputs), backward))
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
        for out_id, in_ids, backward_fn in reversed(self._entries):
            g = grads.pop(out_id, None)
            if g is None:  # branch that never reached the loss
                continue
            for in_id, gi in zip(in_ids, backward_fn(g)):
                if in_id is None or gi is None:
                    continue
                have = grads.get(in_id)
                grads[in_id] = gi if have is None else have + gi
        loss.grad = seed
        for t in self._leaves:
            g = grads.get(t.node_id)
            t.grad = np.zeros_like(t.values) if g is None else np.asarray(g, dtype=np.float64)
        # Tensors point at their tape; dropping the tape's references back to
        # them breaks the cycle, so the tape is freed without the collector.
        self._entries = []
        self._leaves = []


# ---------------------------------------------------------------------------
# op plumbing


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


def tanh(x) -> Tensor:
    x = _lift(x)
    y = np.tanh(x.values)

    def backward(g):
        return (g * (1.0 - y * y),)

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
        ga = gb = None
        if need_a:
            ga = g2 @ b2.T
            if av.ndim == 1:
                ga = ga[0]
        if need_b:
            gb = a2.T @ g2
            if bv.ndim == 1:
                gb = gb[:, 0]
        return ga, gb

    return _emit(_tape_of(a, b), out, (a, b), backward)


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
    """Select rows of a 2-d table; backward scatter-adds, so repeated
    indices accumulate gradient."""
    table = _lift(table)
    tv = table.values
    if tv.ndim != 2:
        raise DimensionError(f"gather_rows needs a 2-d table, got shape {tv.shape}")
    idx = np.asarray(list(indices), dtype=np.intp)
    if idx.ndim != 1:
        raise DimensionError("gather_rows indices must be a flat sequence")
    n = tv.shape[0]
    if idx.size:
        bad = idx[(idx < 0) | (idx >= n)]
        if bad.size:
            raise IndexError(f"row index {int(bad[0])} out of range for table with {n} rows")

    def backward(g):
        out = np.zeros_like(tv)
        np.add.at(out, idx, g)
        return (out,)

    return _emit(_tape_of(table), tv[idx], (table,), backward)


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
