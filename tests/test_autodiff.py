import ast
import functools
import gc
import importlib
import math
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse

from cgl import autodiff as ad
from composed_gru import tanh


def fd_grad(loss_fn, arr, step=1e-6):
    """Central-difference gradient of a scalar-valued loss_fn(arr) -> float.

    Independent of the tape: only calls the forward path.
    """
    g = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        lp = loss_fn(arr)
        flat[i] = orig - step
        lm = loss_fn(arr)
        flat[i] = orig
        gflat[i] = (lp - lm) / (2 * step)
    return g


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return np.max(np.abs(a - b) / denom)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    b = np.array([[2.0, 3.0, 5.0], [7.0, 11.0, 13.0]])
    out = ad.matmul(np.eye(2), b)
    assert np.array_equal(out.values, b)


def test_matmul_hand_product():
    out = ad.matmul([[1.0, 2.0], [3.0, 4.0]], [[1.0], [1.0]])
    assert np.array_equal(out.values, [[3.0], [7.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(ad.DimensionError, match=r"\(2, 3\)"):
        ad.matmul(np.ones((2, 3)), np.ones((2, 3)))


def test_matmul_gradient_vs_fd():
    rng = np.random.default_rng(7)
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(4, 2))

    def loss_a(a):
        return float((a @ b0).sum())

    tape = ad.Tape()
    a = tape.leaf(a0)
    loss = ad.reduce_sum(ad.matmul(a, b0))
    loss.backward()
    assert rel_err(a.grad, fd_grad(loss_a, a0.copy())) < 1e-6


@pytest.mark.parametrize("sa,sb", [((3,), (3, 2)), ((2, 3), (3,)), ((4,), (4,))])
def test_matmul_vector_cases(sa, sb):
    rng = np.random.default_rng(11)
    a0, b0 = rng.normal(size=sa), rng.normal(size=sb)
    assert np.allclose(ad.matmul(a0, b0).values, a0 @ b0)
    tape = ad.Tape()
    a, b = tape.leaf(a0), tape.leaf(b0)
    out = ad.matmul(a, b)
    w = rng.normal(size=out.shape)
    loss = ad.reduce_sum(ad.mul(out, w))
    loss.backward()
    ga = fd_grad(lambda x: float(((x @ b0) * w).sum()), a0.copy())
    gb = fd_grad(lambda x: float(((a0 @ x) * w).sum()), b0.copy())
    assert rel_err(a.grad, ga) < 1e-6
    assert rel_err(b.grad, gb) < 1e-6


# ---------------------------------------------------------------------------
# elementwise ops


def test_sigmoid_at_zero():
    tape = ad.Tape()
    x = tape.leaf(np.array([0.0]))
    y = ad.sigmoid(x)
    assert y.values[0] == 0.5
    ad.reduce_sum(y).backward()
    assert x.grad[0] == 0.25


def test_sigmoid_direct_value():
    # 1 / (1 + e^-2)
    assert abs(ad.sigmoid(np.array([2.0])).values[0] - 0.8807970779778823) < 1e-4


def test_relu_negative():
    tape = ad.Tape()
    x = tape.leaf(np.array([-3.0]))
    y = ad.relu(x)
    assert y.values[0] == 0.0
    ad.reduce_sum(y).backward()
    assert x.grad[0] == 0.0


def test_log_domain_error():
    with pytest.raises(ad.NumericDomainError):
        ad.log(np.array([1.0, 0.0]))


def test_clamp_gradient_mask():
    tape = ad.Tape()
    x = tape.leaf(np.array([-2.0, 0.5, 2.0]))
    y = ad.clamp(x, 0.0, 1.0)
    assert np.array_equal(y.values, [0.0, 0.5, 1.0])
    ad.reduce_sum(y).backward()
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


def test_broadcast_restricted():
    ad.add(np.ones((4, 3)), np.ones(3))  # trailing suffix: fine
    ad.add(np.ones((4, 3)), 2.0)  # scalar: fine
    with pytest.raises(ad.DimensionError):
        ad.add(np.ones((4, 3)), np.ones(4))
    with pytest.raises(ad.DimensionError):
        ad.add(np.ones((4, 3)), np.ones((4, 1)))


def test_broadcast_gradient_reduces():
    rng = np.random.default_rng(3)
    m0, v0 = rng.normal(size=(4, 3)), rng.normal(size=3)
    tape = ad.Tape()
    m, v = tape.leaf(m0), tape.leaf(v0)
    w = rng.normal(size=(4, 3))
    ad.reduce_sum(ad.mul(ad.add(m, v), w)).backward()
    assert rel_err(v.grad, fd_grad(lambda x: float(((m0 + x) * w).sum()), v0.copy())) < 1e-6
    assert v.grad.shape == (3,)


@pytest.mark.parametrize("name", ["add", "sub", "mul", "sigmoid", "tanh", "relu", "log", "clamp"])
def test_elementwise_gradients_vs_fd(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))  # str hash() varies per process
    # keep clear of relu/clamp kinks
    x0 = rng.normal(size=(3, 4))
    x0 = np.where(np.abs(x0) < 0.05, 0.3, x0)
    y0 = rng.normal(size=(3, 4))
    w = rng.normal(size=(3, 4))
    binary = {"add": ad.add, "sub": ad.sub, "mul": ad.mul}
    if name in binary:
        op = binary[name]
        np_op = {"add": np.add, "sub": np.subtract, "mul": np.multiply}[name]

        def value(x):
            return float((np_op(x, y0) * w).sum())

        tape = ad.Tape()
        x = tape.leaf(x0)
        ad.reduce_sum(ad.mul(op(x, y0), w)).backward()
    else:
        if name == "log":
            x0 = np.abs(x0) + 0.1
        unary = {
            "sigmoid": (ad.sigmoid, lambda v: 1 / (1 + np.exp(-v))),
            "tanh": (tanh, np.tanh),
            "relu": (ad.relu, lambda v: np.maximum(v, 0.0)),
            "log": (ad.log, np.log),
            "clamp": (lambda t: ad.clamp(t, -1.0, 1.0), lambda v: np.clip(v, -1.0, 1.0)),
        }
        op, np_op = unary[name]

        def value(x):
            return float((np_op(x) * w).sum())

        tape = ad.Tape()
        x = tape.leaf(x0)
        ad.reduce_sum(ad.mul(op(x), w)).backward()
    assert rel_err(x.grad, fd_grad(value, x0.copy())) < 1e-6


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform():
    out = ad.softmax(np.zeros(3))
    assert np.allclose(out.values, [1 / 3] * 3, atol=1e-15)


def test_softmax_exponentiate_and_normalize():
    # oracle: exp then normalize
    x = np.log([1.0, 2.0, 3.0])
    expected = np.exp(x) / np.exp(x).sum()
    assert np.allclose(ad.softmax(x).values, expected, atol=1e-15)
    assert np.allclose(ad.softmax(x).values, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(5)
    x = rng.normal(size=10)
    a = ad.softmax(x).values
    b = ad.softmax(x + 123.456).values
    assert np.max(np.abs(a - b)) < 1e-12


def test_softmax_sums_to_one():
    rng = np.random.default_rng(9)
    for size in [1, 2, 17, 50000]:
        x = rng.normal(scale=20.0, size=size)
        y = ad.softmax(x).values
        assert abs(y.sum() - 1.0) < 1e-12
        assert np.all(y > 0)
    m = rng.normal(size=(4, 6))
    assert np.max(np.abs(ad.softmax(m, axis=1).values.sum(axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(ad.softmax(m, axis=0).values.sum(axis=0) - 1.0)) < 1e-12


def test_softmax_empty_axis():
    with pytest.raises(ad.DimensionError):
        ad.softmax(np.zeros((3, 0)), axis=1)


def test_softmax_gradient_vs_fd():
    rng = np.random.default_rng(13)
    x0 = rng.normal(size=(2, 5))
    w = rng.normal(size=(2, 5))

    def value(x):
        e = np.exp(x - x.max(axis=1, keepdims=True))
        return float((e / e.sum(axis=1, keepdims=True) * w).sum())

    tape = ad.Tape()
    x = tape.leaf(x0)
    ad.reduce_sum(ad.mul(ad.softmax(x, axis=1), w)).backward()
    assert rel_err(x.grad, fd_grad(value, x0.copy())) < 1e-6


# ---------------------------------------------------------------------------
# reductions, concat, reshape, gather


def test_mean_basic():
    assert ad.reduce_mean(np.array([2.0, 4.0])).item() == 3.0


def test_sum_gradient_ones():
    tape = ad.Tape()
    x = tape.leaf(np.arange(6.0).reshape(2, 3))
    ad.reduce_sum(x).backward()
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_mean_single_row_identity():
    row = np.array([[1.0, 2.0, 3.0]])
    assert np.array_equal(ad.reduce_mean(row, axis=0).values, row[0])


def test_mean_gradient_uniform_scaled():
    tape = ad.Tape()
    x = tape.leaf(np.arange(8.0).reshape(2, 4))
    ad.reduce_sum(ad.reduce_mean(x, axis=0)).backward()
    assert np.allclose(x.grad, np.full((2, 4), 0.5))


def test_mean_zero_length_axis():
    with pytest.raises(ValueError):
        ad.reduce_mean(np.zeros((0, 3)), axis=0)


def test_concat_values_and_shapes():
    assert np.array_equal(ad.concat([np.array([1.0]), np.array([2.0])]).values, [1.0, 2.0])
    parts = [np.ones((5, 32)) * i for i in range(5)]
    out = ad.concat(parts, axis=1)
    assert out.shape == (5, 160)
    assert np.array_equal(out.values, np.concatenate(parts, axis=1))
    assert ad.concat(parts, axis=-1).shape == (5, 160)


def test_concat_errors():
    with pytest.raises(ValueError, match="at least one"):
        ad.concat([])
    with pytest.raises(ad.DimensionError, match="rank"):
        ad.concat([np.ones((2, 3)), np.ones((2, 3)), np.ones(3)])
    with pytest.raises(ad.DimensionError, match="axis 2"):
        ad.concat([np.ones((2, 3)), np.ones((2, 3))], axis=2)
    with pytest.raises(ad.DimensionError, match="axis -3"):
        ad.concat([np.ones((2, 3))], axis=-3)
    with pytest.raises(ad.DimensionError, match="off-axis"):
        ad.concat([np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 4))], axis=0)


def test_concat_of_one_part_records_nothing():
    tape = ad.Tape()
    a = tape.leaf(np.ones((2, 2)))
    assert ad.concat([a], axis=1) is a
    assert tape._entries == []


def test_concat_gradient_splits():
    tape = ad.Tape()
    a = tape.leaf(np.ones((2, 2)))
    b = tape.leaf(np.ones((3, 2)))
    c = ad.constant(np.ones((1, 2)))
    w = np.arange(12.0).reshape(6, 2)
    ad.reduce_sum(ad.mul(ad.concat([a, c, b], axis=0), w)).backward()
    assert np.array_equal(a.grad, w[:2])
    assert np.array_equal(b.grad, w[3:])


def test_gather_rows_repeated_and_empty():
    table0 = np.arange(12.0).reshape(4, 3)
    tape = ad.Tape()
    table = tape.leaf(table0)
    out = ad.gather_rows(table, [0, 0])
    assert np.array_equal(out.values, table0[[0, 0]])
    ad.reduce_sum(out).backward()
    assert np.array_equal(table.grad[0], [2.0, 2.0, 2.0])
    assert np.array_equal(table.grad[1:], np.zeros((3, 3)))
    empty = ad.gather_rows(table0, [])
    assert empty.shape == (0, 3)


def test_gather_rows_verbatim_lookup():
    rng = np.random.default_rng(17)
    table = rng.normal(size=(5, 4))
    out = ad.gather_rows(table, [2, 1])
    assert np.array_equal(out.values, np.stack([table[2], table[1]]))


def test_gather_rows_out_of_range():
    with pytest.raises(IndexError, match="7"):
        ad.gather_rows(np.zeros((3, 2)), [0, 7])


# ---------------------------------------------------------------------------
# spmm


def middle_rows_pattern(rows, cols, nnz, rng):
    """A CSR pattern with ``nnz`` entries, none in the first or last row."""
    flat = rng.choice((rows - 2) * cols, size=nnz, replace=False) + cols
    return sparse.csr_matrix((np.ones(nnz), (flat // cols, flat % cols)), shape=(rows, cols))


@pytest.mark.parametrize("rows,cols,nnz", [(5, 4, 6), (6, 3, 12), (4, 6, 0)])
def test_spmm_gradients_vs_fd(rows, cols, nnz):
    rng = np.random.default_rng(rows * 10 + nnz)
    pattern = middle_rows_pattern(rows, cols, nnz, rng)
    v0, x0, w = rng.normal(size=nnz), rng.normal(size=(cols, 3)), rng.normal(size=(rows, 3))

    def dense(v):
        return sparse.csr_matrix((v, pattern.indices, pattern.indptr), shape=pattern.shape).toarray()

    tape = ad.Tape()
    v, x = tape.leaf(v0), tape.leaf(x0)
    out = ad.spmm(pattern, v, x)
    assert np.max(np.abs(out.values - dense(v0) @ x0), initial=0.0) < 1e-12
    assert np.all(out.values[[0, -1]] == 0.0)  # empty rows
    ad.reduce_sum(ad.mul(out, w)).backward()
    assert v.grad.shape == (nnz,)
    if nnz:
        assert rel_err(v.grad, fd_grad(lambda a: float((w * (dense(a) @ x0)).sum()),
                                       v0.copy())) < 1e-6
    assert rel_err(x.grad, fd_grad(lambda a: float((w * (dense(v0) @ a)).sum()),
                                   x0.copy())) < 1e-6
    if not nnz:
        assert np.all(x.grad == 0.0)


def test_spmm_shape_checks():
    pattern = sparse.csr_matrix(np.eye(3))
    with pytest.raises(ad.DimensionError, match="CSR"):
        ad.spmm(np.eye(3), np.ones(3), np.ones((3, 2)))
    with pytest.raises(ad.DimensionError, match="3 values"):
        ad.spmm(pattern, np.ones(2), np.ones((3, 2)))
    with pytest.raises(ad.DimensionError):
        ad.spmm(pattern, np.ones(3), np.ones((4, 2)))


def test_gather_rows_vector_scatter_adds():
    tape = ad.Tape()
    vec = tape.leaf(np.array([1.0, 2.0, 3.0]))
    out = ad.gather_rows(vec, np.array([2, 0, 2]))
    assert np.array_equal(out.values, [3.0, 1.0, 3.0])
    ad.reduce_sum(ad.mul(out, np.array([1.0, 10.0, 100.0]))).backward()
    assert np.array_equal(vec.grad, [10.0, 0.0, 101.0])


entries = st.one_of(st.floats(width=64),
                    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308]))


@given(rows=st.integers(1, 6), trailing=st.lists(st.integers(1, 3), max_size=2),
       data=st.data())
def test_scatter_matches_a_python_loop(rows, trailing, data):
    """``_scatter`` into 1-d, 2-d and 3-d tables equals ``out[i] += row`` in
    index order, byte for byte: indices repeat or leave rows out, and rows
    hold signed zeros, infinities, NaN and the largest magnitudes. The one
    exception is which NaN a sum of two NaNs keeps (inf + -inf makes a
    negative one): numpy's vector and strided add loops keep different
    operands, so a NaN entry is compared as NaN, not by its sign and payload."""
    idx = np.array(data.draw(st.lists(st.integers(0, rows - 1), max_size=10)), dtype=np.intp)
    width = math.prod(trailing)
    values = data.draw(st.lists(entries, min_size=idx.size * width, max_size=idx.size * width))
    row_values = np.array(values, dtype=np.float64).reshape(idx.size, *trailing)
    want = np.zeros((rows, *trailing))
    with np.errstate(invalid="ignore", over="ignore"):
        for i, row in zip(idx, row_values):
            want[i] += row
        got = ad._scatter((rows, *trailing), idx, row_values)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    got[nan] = want[nan] = 0.0
    assert got.tobytes() == want.tobytes()


def test_gather_rows_index_shape_gives_output_shape():
    """A (B, 1) index array gives a (B, 1, d) stack and a 0-d index one row;
    the gradient scatters back as for the flat indices."""
    rng = np.random.default_rng(23)
    table0 = rng.normal(size=(4, 3))
    tape = ad.Tape()
    table = tape.leaf(table0)
    stacked = ad.gather_rows(table, np.array([[2], [0], [2]]))
    assert np.array_equal(stacked.values, table0[[2, 0, 2]][:, None, :])
    row = ad.gather_rows(table, np.intp(3))
    assert np.array_equal(row.values, table0[3])
    w = rng.normal(size=(3, 1, 3))
    ad.add(ad.reduce_sum(ad.mul(stacked, w)), ad.reduce_sum(row)).backward()
    want = np.zeros((4, 3))
    want[0] = w[1, 0]
    want[2] = w[0, 0] + w[2, 0]
    want[3] = 1.0
    assert np.allclose(table.grad, want, rtol=0, atol=1e-15)
    with pytest.raises(IndexError, match="4"):
        ad.gather_rows(table0, np.array([[1], [4]]))


def test_fold_sum_is_a_left_fold():
    """The bits of a chain of scalar adds, in flattened order, where a
    pairwise sum differs; every entry's gradient is the output's."""
    flat = np.array([1.0] + [1e-16] * 19)  # each tiny term alone rounds away
    chain = functools.reduce(lambda acc, v: ad.add(acc, v), [ad.constant(v) for v in flat])
    tape = ad.Tape()
    x = tape.leaf(flat.reshape(5, 4, 1))
    total = ad.fold_sum(x)
    assert total.shape == ()
    assert total.values.tobytes() == chain.values.tobytes()
    assert total.item() == 1.0 < flat.sum()  # a pairwise sum keeps the tiny terms
    ad.mul(total, 3.0).backward()
    assert np.array_equal(x.grad, np.full((5, 4, 1), 3.0))
    assert ad.fold_sum(np.array([2.0, 0.5])).item() == 2.5
    with pytest.raises(ValueError, match="no entries"):
        ad.fold_sum(np.empty((2, 0)))


def test_reshape_gradient():
    tape = ad.Tape()
    x = tape.leaf(np.arange(6.0))
    w = np.arange(6.0).reshape(2, 3)
    ad.reduce_sum(ad.mul(ad.reshape(x, (2, 3)), w)).backward()
    assert np.array_equal(x.grad, np.arange(6.0))


# ---------------------------------------------------------------------------
# batch normalization


def test_batchnorm_constant_column_gives_shift():
    state = ad.BatchNormState(2)
    x = np.array([[3.0, 5.0], [3.0, 5.0], [3.0, 5.0]])
    out = ad.batchnorm(x, np.ones(2), np.array([0.7, -0.2]), state, mode="train")
    assert np.allclose(out.values[:, 0], 0.7, atol=1e-12)
    assert np.allclose(out.values[:, 1], -0.2, atol=1e-12)


def test_batchnorm_unit_variance_column():
    # hand computation: mean 0, biased variance 1, output x / sqrt(1 + 1e-5)
    state = ad.BatchNormState(1)
    x = np.array([[-1.0], [1.0]])
    out = ad.batchnorm(x, np.ones(1), np.zeros(1), state, mode="train")
    expected = np.array([[-1.0], [1.0]]) / math.sqrt(1.0 + 1e-5)
    assert np.allclose(out.values, expected, atol=1e-12)


def test_batchnorm_infer_uses_running_stats():
    rng = np.random.default_rng(23)
    state = ad.BatchNormState(3)
    scale, shift = rng.normal(size=3), rng.normal(size=3)
    for _ in range(4):
        ad.batchnorm(rng.normal(size=(6, 3)), scale, shift, state, mode="train")
    x = rng.normal(size=(2, 3))
    out = ad.batchnorm(x, scale, shift, state, mode="infer")
    expected = (x - state.running_mean) / np.sqrt(state.running_var + 1e-5) * scale + shift
    assert np.max(np.abs(out.values - expected)) < 1e-9


def test_batchnorm_infer_before_train_errors():
    with pytest.raises(RuntimeError):
        ad.batchnorm(np.ones((2, 2)), np.ones(2), np.zeros(2), ad.BatchNormState(2), mode="infer")


def test_batchnorm_train_needs_two_rows():
    with pytest.raises(ValueError):
        ad.batchnorm(np.ones((1, 2)), np.ones(2), np.zeros(2), ad.BatchNormState(2), mode="train")


def test_batchnorm_gradients_vs_fd():
    rng = np.random.default_rng(29)
    x0 = rng.normal(size=(5, 3))
    s0 = rng.normal(size=3) + 1.5
    b0 = rng.normal(size=3)
    w = rng.normal(size=(5, 3))

    def value_of(x, s, b, mode):
        st = ad.BatchNormState(3)
        if mode == "infer":
            st.running_mean = np.array([0.1, -0.2, 0.3])
            st.running_var = np.array([1.5, 0.7, 2.0])
            st.steps = 1
        return float((ad.batchnorm(x, s, b, st, mode=mode).values * w).sum())

    for mode in ("train", "infer"):
        tape = ad.Tape()
        x, s, b = tape.leaf(x0), tape.leaf(s0), tape.leaf(b0)
        st = ad.BatchNormState(3)
        if mode == "infer":
            st.running_mean = np.array([0.1, -0.2, 0.3])
            st.running_var = np.array([1.5, 0.7, 2.0])
            st.steps = 1
        ad.reduce_sum(ad.mul(ad.batchnorm(x, s, b, st, mode=mode), w)).backward()
        assert rel_err(x.grad, fd_grad(lambda v: value_of(v, s0, b0, mode), x0.copy())) < 1e-6
        assert rel_err(s.grad, fd_grad(lambda v: value_of(x0, v, b0, mode), s0.copy())) < 1e-6
        assert rel_err(b.grad, fd_grad(lambda v: value_of(x0, s0, v, mode), b0.copy())) < 1e-6


# ---------------------------------------------------------------------------
# tape contracts


def test_loss_grad_wrt_itself_is_one():
    tape = ad.Tape()
    x = tape.leaf(np.array([2.0]))
    loss = ad.reduce_sum(ad.mul(x, x))
    loss.backward()
    assert loss.grad.reshape(()) == 1.0


def test_untracked_tensor_never_accumulates():
    tape = ad.Tape()
    x = tape.leaf(np.array([2.0]))
    c = ad.constant(np.array([3.0]))
    ad.reduce_sum(ad.mul(x, c)).backward()
    assert c.grad is None
    assert np.array_equal(x.grad, [3.0])


@pytest.mark.parametrize("const_first", [False, True])
@pytest.mark.parametrize("name", ["add", "sub", "mul", "matmul", "spmm"])
def test_untracked_operand_gets_no_gradient(name, const_first):
    rng = np.random.default_rng(7)
    xv, cv, g = (rng.normal(size=(3, 3)) for _ in range(3))
    op = getattr(ad, name)
    if name == "spmm":  # operands (values, dense) of a fixed pattern
        pattern = sparse.csr_matrix(np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0]]))
        op = functools.partial(ad.spmm, pattern)
        values = rng.normal(size=pattern.nnz)
        if const_first:
            cv = values
        else:
            xv = values

    def slots(c_tracked):
        """The op's backward output for (x, c), with c a leaf or a constant."""
        tape = ad.Tape()
        x = tape.leaf(xv)
        c = tape.leaf(cv) if c_tracked else ad.constant(cv)
        op(*((c, x) if const_first else (x, c)))
        grads = tape._entries[-1][2](g)
        return grads[::-1] if const_first else grads

    x_slot, c_slot = slots(c_tracked=False)
    assert c_slot is None
    assert np.array_equal(x_slot, slots(c_tracked=True)[0])


def test_backward_releases_the_tape():
    gc.disable()
    try:
        tape = ad.Tape()
        x = tape.leaf(np.array([1.0, 2.0]))
        loss = ad.reduce_sum(ad.mul(x, x))
        loss.backward()
        grad = x.grad
        alive = weakref.ref(tape)
        del tape, x, loss
        assert alive() is None  # freed by reference counting alone
    finally:
        gc.enable()
    assert np.array_equal(grad, [2.0, 4.0])


def test_second_backward_rejected():
    tape = ad.Tape()
    x = tape.leaf(np.array([1.0, 2.0]))
    loss = ad.reduce_sum(ad.mul(x, x))
    loss.backward()
    with pytest.raises(ad.TapeError):
        loss.backward()


def test_mixing_tapes_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    a = t1.leaf(np.ones(2))
    b = t2.leaf(np.ones(2))
    with pytest.raises(ad.TapeError):
        ad.add(a, b)


def test_non_scalar_backward_rejected():
    tape = ad.Tape()
    x = tape.leaf(np.ones((2, 2)))
    y = ad.mul(x, 2.0)
    with pytest.raises(ad.DimensionError):
        y.backward()


def test_unused_leaf_gets_zero_grad():
    tape = ad.Tape()
    x = tape.leaf(np.ones(3))
    y = tape.leaf(np.ones(3))
    ad.reduce_sum(ad.mul(x, x)).backward()
    assert np.array_equal(y.grad, np.zeros(3))


def test_deterministic_execution():
    def run():
        rng = np.random.default_rng(99)
        tape = ad.Tape()
        a = tape.leaf(rng.normal(size=(4, 4)))
        b = tape.leaf(rng.normal(size=(4, 4)))
        out = ad.softmax(ad.matmul(tanh(a), ad.sigmoid(b)), axis=1)
        loss = ad.reduce_mean(ad.mul(out, out))
        loss.backward()
        return loss.values.copy(), a.grad.copy(), b.grad.copy()

    r1, r2 = run(), run()
    for x, y in zip(r1, r2):
        assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# check_gradients harness


def test_check_gradients_quadratic():
    params = {"x": np.array([3.0])}

    def f():
        tape = ad.Tape()
        x = tape.leaf(params["x"])
        return ad.reduce_sum(ad.mul(x, x)), {"x": x}

    report = ad.check_gradients(f, params, step=1e-6)
    chk = report.arrays["x"]
    assert abs(chk.autodiff_grad - 6.0) < 1e-12
    assert abs(chk.fd_grad - 6.0) < 1e-6
    assert report.max_rel_err < 1e-9


def test_check_gradients_zero_loss():
    params = {"x": np.array([1.0, -2.0])}

    def f():
        tape = ad.Tape()
        x = tape.leaf(params["x"])
        return ad.reduce_sum(ad.mul(x, 0.0)), {"x": x}

    report = ad.check_gradients(f, params, step=1e-6)
    assert report.max_rel_err == 0.0


def test_check_gradients_rejects_non_scalar():
    params = {"x": np.ones(2)}

    def f():
        tape = ad.Tape()
        x = tape.leaf(params["x"])
        return ad.mul(x, 2.0), {"x": x}

    with pytest.raises(ValueError):
        ad.check_gradients(f, params)


def test_check_gradients_samples_large_arrays():
    rng = np.random.default_rng(31)
    params = {"w": rng.normal(size=(30, 10))}
    coef = rng.normal(size=(30, 10))

    def f():
        tape = ad.Tape()
        w = tape.leaf(params["w"])
        return ad.reduce_sum(ad.mul(tanh(w), coef)), {"w": w}

    report = ad.check_gradients(f, params, step=1e-6, sample=50, seed=1)
    assert report.arrays["w"].entries_checked == 50
    assert report.max_rel_err < 1e-6


# ---------------------------------------------------------------------------
# the exported surface

# Exported for callers outside the package: autodiff's errors a caller may
# catch and its finite-difference checker with its report, and the tokenizer
# that turns raw note text into the token lists a dataset record holds.
OUTSIDE_CALLERS = {
    "autodiff": {"DimensionError", "NumericDomainError", "TapeError", "check_gradients",
                 "GradientCheckReport"},
    "text": {"tokenize"},
}


def names_read_from_autodiff(path: Path) -> set[str]:
    """The autodiff names a module reads: attributes of the module under any
    name it is imported as, and names imported from it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "autodiff":
                    aliases.add(alias.asname or alias.name)
                elif (node.module or "").endswith("autodiff"):
                    names.add(alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return names


def names_read(path: Path) -> set[str]:
    """The names a module reads: loaded names and attributes, and the
    imported name behind each loaded import alias. A definition reads none."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names if alias.asname in names)
    return names


def test_every_exported_name_is_used_by_the_package():
    """No exported function that the model never calls: every name in a
    ``cgl`` module's ``__all__`` is read by ``cgl`` code other than its own
    definition, and every name of ``cgl.autodiff.__all__`` by another module.
    The package's ``__init__`` lists the modules themselves and is not checked."""
    package = Path(ad.__file__).parent
    modules = sorted(path.stem for path in package.glob("*.py") if path.stem != "__init__")
    used = set().union(*(names_read(path) for path in package.glob("*.py")))
    for stem in modules:
        exported = set(getattr(importlib.import_module(f"cgl.{stem}"), "__all__", ()))
        assert exported - OUTSIDE_CALLERS.get(stem, set()) - used == set(), stem
    used_elsewhere = set().union(*(names_read_from_autodiff(path) for path in package.glob("*.py")
                                   if path.name != "autodiff.py"))
    assert set(ad.__all__) - OUTSIDE_CALLERS["autodiff"] - used_elsewhere == set()
