"""Every autodiff op against its closure-based form in ``closure_ops.py``.

Each op now records a module-level backward function bound to its saved
operands. On random shapes (equal shapes, ``()`` and ``(1,)`` scalars,
trailing-suffix bias rows) and every mix of tracked and untracked operands,
its values and gradients must equal the closure form's bit for bit, and the
gradients must agree with finite differences. ``group_mean`` has no closure
form: its oracle is ``reduce_mean(gather_rows(table, group), axis=0)`` per
group, recorded in group order. Nor has ``gru_sequence``: its oracle is the
recurrence composed of ops, step by step, in ``composed_gru.py``.
"""

import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse

import closure_ops as old
import composed_gru
from cgl import autodiff as ad
from cgl.model import FrozenScorer

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 4)
shapes = st.lists(dims, min_size=0, max_size=2).map(tuple)


def run(mod, call, operands, tracked, w):
    """``call(mod, tensors)`` on a fresh tape: the output values and, when an
    operand is tracked, the gradients of ``sum(out * w)`` for the tracked ones.
    An operand that is not an array (a Python float) is passed as it is."""
    tape = ad.Tape()
    xs = [tape.leaf(a) if t else (ad.constant(a) if isinstance(a, np.ndarray) else a)
          for a, t in zip(operands, tracked)]
    out = call(mod, xs)
    if not any(tracked):
        assert out.tape is None
        return out.values, []
    mod.reduce_sum(mod.mul(out, w)).backward()
    return out.values, [x.grad for x, t in zip(xs, tracked) if t]


def assert_matches_oracle(call, operands, tracked, seed):
    """Values and gradients equal to the closure ops'; finite differences agree."""
    w = np.random.default_rng(seed).uniform(0.5, 1.5, size=call(old, operands).shape)
    got_values, got_grads = run(ad, call, operands, tracked, w)
    want_values, want_grads = run(old, call, operands, tracked, w)
    assert got_values.dtype == np.float64
    assert got_values.shape == want_values.shape
    assert np.array_equal(got_values, want_values)
    assert len(got_grads) == len(want_grads)
    for got, want in zip(got_grads, want_grads):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert_finite_differences_agree(call, operands, tracked, w)


def assert_finite_differences_agree(call, operands, tracked, w):
    """The gradients of ``sum(call(ad, operands) * w)`` for the tracked
    operands agree with central finite differences."""
    if not any(tracked):
        return
    params = {f"x{i}": np.array(a, dtype=np.float64)
              for i, (a, t) in enumerate(zip(operands, tracked)) if t}

    def program():
        tape = ad.Tape()
        leaves = {name: tape.leaf(arr) for name, arr in params.items()}
        xs = [leaves.get(f"x{i}", a) for i, a in enumerate(operands)]
        return ad.reduce_sum(ad.mul(call(ad, xs), w)), leaves

    report = ad.check_gradients(program, params, step=1e-6)
    assert report.max_rel_err < 1e-5, report.summary()


def away_from(x, points, gap=0.05):
    """``x`` with entries within ``gap`` of a kink moved off it."""
    for p in points:
        x = np.where(np.abs(x - p) < gap, p + 0.3, x)
    return x


# ---------------------------------------------------------------------------
# elementwise ops


# operand shapes made from a base shape: equal, a scalar of shape () or (1,) on
# either side, a Python float, or a bias row that is a trailing suffix
PAIRS = {
    "equal": lambda s: (s, s),
    "a=()": lambda s: ((), s),
    "a=(1,)": lambda s: ((1,), s),
    "b=()": lambda s: (s, ()),
    "b=(1,)": lambda s: (s, (1,)),
    "b=float": lambda s: (s, ()),
    "b=suffix": lambda s: ((2, *s), s),
    "a=suffix": lambda s: (s, (3, *s)),
}


@given(seed=seeds, op=st.sampled_from(["add", "sub", "mul"]),
       kind=st.sampled_from(sorted(PAIRS)), base=st.lists(dims, min_size=1, max_size=2).map(tuple),
       tracked=st.tuples(st.booleans(), st.booleans()))
def test_binary_ops_match_oracle(seed, op, kind, base, tracked):
    rng = np.random.default_rng(seed)
    sa, sb = PAIRS[kind](base)
    a, b = rng.normal(size=sa), rng.normal(size=sb)
    if kind == "b=float":
        b, tracked = float(b), (tracked[0], False)
    assert_matches_oracle(lambda mod, xs: getattr(mod, op)(*xs), [a, b], tracked, seed)


@given(seed=seeds, op=st.sampled_from(["sigmoid", "relu", "log", "clamp"]),
       shape=shapes, tracked=st.booleans())
def test_unary_ops_match_oracle(seed, op, shape, tracked):
    x = np.random.default_rng(seed).normal(size=shape)
    if op == "log":
        x = np.abs(x) + 0.1
    x = away_from(x, {"relu": [0.0], "clamp": [-0.5, 0.5]}.get(op, []))
    if op == "clamp":
        call = lambda mod, xs: mod.clamp(xs[0], -0.5, 0.5)
    else:
        call = lambda mod, xs: getattr(mod, op)(xs[0])
    assert_matches_oracle(call, [x], [tracked], seed)


# ---------------------------------------------------------------------------
# linear algebra and shape ops


@given(seed=seeds, m=st.integers(0, 4), k=dims, n=st.integers(0, 4),
       tracked=st.tuples(st.booleans(), st.booleans()))
def test_matmul_matches_oracle(seed, m, k, n, tracked):
    """``m == 0`` is a 1-d left operand and ``n == 0`` a 1-d right one."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, k) if m else (k,))
    b = rng.normal(size=(k, n) if n else (k,))
    assert_matches_oracle(lambda mod, xs: mod.matmul(*xs), [a, b], tracked, seed)


@given(seed=seeds, rows=dims, cols=dims, width=dims, density=st.floats(0.1, 1.0),
       tracked=st.tuples(st.booleans(), st.booleans()))
def test_spmm_matches_oracle(seed, rows, cols, width, density, tracked):
    rng = np.random.default_rng(seed)
    pattern = sparse.random(rows, cols, density=density, format="csr", random_state=rng)
    values, x = rng.normal(size=pattern.nnz), rng.normal(size=(cols, width))
    call = lambda mod, xs: mod.spmm(pattern, *xs)
    assert_matches_oracle(call, [values, x], tracked, seed)


@given(seed=seeds, shape=st.lists(dims, min_size=1, max_size=2).map(tuple),
       axis=st.integers(-2, 1), tracked=st.booleans())
def test_softmax_matches_oracle(seed, shape, axis, tracked):
    if not -len(shape) <= axis < len(shape):
        axis = -1
    x = np.random.default_rng(seed).normal(size=shape)
    assert_matches_oracle(lambda mod, xs: mod.softmax(xs[0], axis=axis), [x], [tracked], seed)


@given(seed=seeds, op=st.sampled_from(["reduce_sum", "reduce_mean"]), shape=shapes,
       axis=st.sampled_from([None, 0, 1, -1]), tracked=st.booleans())
def test_reductions_match_oracle(seed, op, shape, axis, tracked):
    if axis is not None and not -len(shape) <= axis < len(shape):
        axis = None
    x = np.random.default_rng(seed).normal(size=shape)
    call = lambda mod, xs: getattr(mod, op)(xs[0], axis=axis)
    assert_matches_oracle(call, [x], [tracked], seed)


@given(seed=seeds, base=st.lists(dims, min_size=1, max_size=2).map(tuple),
       axis=st.integers(-2, 1), extents=st.lists(dims, min_size=1, max_size=4),
       data=st.data())
def test_concat_matches_oracle(seed, base, axis, extents, data):
    """One n-ary concat of 1-4 parts against a left fold of the binary closure
    form: equal values and gradients bit for bit, for every mix of tracked
    and untracked parts."""
    if not -len(base) <= axis < len(base):
        axis = 0
    rng = np.random.default_rng(seed)
    ax = axis % len(base)
    parts = [rng.normal(size=base[:ax] + (n,) + base[ax + 1:]) for n in extents]
    tracked = data.draw(st.lists(st.booleans(), min_size=len(parts), max_size=len(parts)))

    def call(mod, xs):
        if mod is ad:
            return ad.concat(xs, axis=axis)
        return functools.reduce(lambda acc, x: old.concat(acc, x, axis=axis), xs)

    assert_matches_oracle(call, parts, tracked, seed)


@given(seed=seeds, shape=shapes, flat=st.booleans(), tracked=st.booleans())
def test_reshape_matches_oracle(seed, shape, flat, tracked):
    x = np.random.default_rng(seed).normal(size=shape)
    target = (-1,) if flat else (1, -1)
    call = lambda mod, xs: mod.reshape(xs[0], target)
    assert_matches_oracle(call, [x], [tracked], seed)


@given(seed=seeds, rows=dims, width=st.integers(0, 3),
       indices=st.lists(st.integers(0, 3), max_size=6), tracked=st.booleans())
def test_gather_rows_matches_oracle(seed, rows, width, indices, tracked):
    """``width == 0`` is a 1-d table; indices repeat rows or are empty."""
    table = np.random.default_rng(seed).normal(size=(rows, width) if width else (rows,))
    idx = [i % rows for i in indices]
    call = lambda mod, xs: mod.gather_rows(xs[0], idx)
    assert_matches_oracle(call, [table], [tracked], seed)


@given(seed=seeds, n=st.integers(2, 4), d=st.integers(1, 3), train=st.booleans(),
       tracked=st.tuples(st.booleans(), st.booleans(), st.booleans()))
def test_batchnorm_matches_oracle(seed, n, d, train, tracked):
    rng = np.random.default_rng(seed)
    x, scale, shift = rng.normal(size=(n, d)), rng.normal(size=d), rng.normal(size=d)
    state = ad.BatchNormState(d)
    ad.batchnorm(rng.normal(size=(3, d)), np.ones(d), np.zeros(d), state)
    call = lambda mod, xs: mod.batchnorm(*xs, state, "train" if train else "infer",
                                         update=False)
    assert_matches_oracle(call, [x, scale, shift], tracked, seed)


# ---------------------------------------------------------------------------
# group_mean against gather_rows + reduce_mean


def per_group_oracle(table, groups):
    """The parent's visit pooling: per group, in order, a gather and a mean."""
    rows = [old.reshape(old.reduce_mean(old.gather_rows(table, g), axis=0), (1, -1))
            for g in groups]
    return rows


def assert_group_mean_matches(table_values, groups, w):
    """``group_mean``'s rows and the table gradient of ``sum_i rows_i . w_i``
    equal the per-group gather and mean's, bit for bit."""
    tape = ad.Tape()
    table = tape.leaf(table_values)
    pooled = ad.group_mean(table, groups)
    terms = [old.reduce_sum(old.mul(ad.gather_rows(pooled, [i]), w[i]))
             for i in range(len(groups))]
    total = terms[0]
    for term in terms[1:]:
        total = old.add(total, term)
    total.backward()

    tape = ad.Tape()
    table_old = tape.leaf(table_values)
    rows = per_group_oracle(table_old, groups)
    terms = [old.reduce_sum(old.mul(row, w[i])) for i, row in enumerate(rows)]
    total_old = terms[0]
    for term in terms[1:]:
        total_old = old.add(total_old, term)
    total_old.backward()

    assert np.array_equal(pooled.values, np.concatenate([r.values for r in rows]))
    assert np.array_equal(total.values, total_old.values)
    assert np.array_equal(table.grad, table_old.grad)


@given(seed=seeds, rows=dims, width=dims,
       groups=st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=5),
                       min_size=1, max_size=5))
def test_group_mean_matches_gather_and_mean(seed, rows, width, groups):
    """Groups may repeat rows, within a group and across groups."""
    rng = np.random.default_rng(seed)
    groups = [np.array([i % rows for i in g], dtype=np.intp) for g in groups]
    table = rng.normal(size=(rows, width))
    w = rng.normal(size=(len(groups), 1, width))
    assert_group_mean_matches(table, groups, w)

    params = {"table": table}

    def program():
        tape = ad.Tape()
        leaves = {"table": tape.leaf(params["table"])}
        pooled = ad.group_mean(ad.sigmoid(leaves["table"]), groups)
        return ad.reduce_sum(ad.mul(pooled, w[:, 0, :])), leaves

    report = ad.check_gradients(program, params, step=1e-6)
    assert report.max_rel_err < 1e-5, report.summary()


# ---------------------------------------------------------------------------
# stacked operands: matmul on (B, m, k) stacks, gather_rows from a stack table


@given(seed=seeds, items=st.integers(1, 3), m=dims, k=dims, n=st.integers(0, 3),
       right=st.sampled_from(["shared", "stacked"]),
       tracked=st.tuples(st.booleans(), st.booleans()))
def test_stacked_matmul_matches_per_item_oracle(seed, items, m, k, n, right, tracked):
    """``(B, m, k) @ (k, n)`` and ``(B, m, k) @ (B, k, n)``: each item's values
    and gradients equal the closure op's on that item alone, bit for bit, but
    the shared right operand's gradient, a sum over the items, only to 1e-12;
    and every gradient agrees with finite differences. ``n == 0`` is a 1-d
    shared right operand."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(items, m, k))
    if right == "stacked":
        b = rng.normal(size=(items, k, max(n, 1)))
    else:
        b = rng.normal(size=(k, n) if n else (k,))
    call = lambda mod, xs: mod.matmul(*xs)
    w = rng.uniform(0.5, 1.5, size=np.matmul(a, b).shape)
    values, grads = run(ad, call, [a, b], tracked, w)
    b_sum = 0.0
    for i in range(items):
        want_values, want_grads = run(old, call, [a[i], b[i] if right == "stacked" else b],
                                      tracked, w[i])
        assert np.array_equal(values[i], want_values)
        if tracked[0]:
            assert np.array_equal(grads[0][i], want_grads[0])
        if tracked[1] and right == "stacked":
            assert np.array_equal(grads[-1][i], want_grads[-1])
        elif tracked[1]:
            b_sum = b_sum + want_grads[-1]
    if tracked[1] and right == "shared":
        assert np.allclose(grads[-1], b_sum, rtol=1e-12, atol=1e-12)
    assert_finite_differences_agree(call, [a, b], tracked, w)


@given(seed=seeds, rows=dims, inner=dims, width=dims,
       indices=st.lists(st.integers(0, 3), max_size=6), column=st.booleans(),
       tracked=st.booleans())
def test_gather_rows_from_a_stack_table_matches_a_flat_table(seed, rows, inner, width,
                                                            indices, column, tracked):
    """Rows of a (rows, inner, width) table, under flat or (n, 1) indices, are
    the rows of the (rows, inner * width) table reshaped: values and gradient
    bit for bit. The gradient agrees with finite differences."""
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(rows, inner, width))
    idx = np.array([i % rows for i in indices], dtype=np.intp)
    if column:
        idx = idx[:, None]
    stacked = lambda mod, xs: mod.gather_rows(xs[0], idx)
    flat = lambda mod, xs: mod.reshape(mod.gather_rows(mod.reshape(xs[0], (rows, -1)), idx),
                                       (*idx.shape, inner, width))
    w = rng.uniform(0.5, 1.5, size=(*idx.shape, inner, width))
    got_values, got_grads = run(ad, stacked, [table], [tracked], w)
    want_values, want_grads = run(ad, flat, [table], [tracked], w)
    assert got_values.shape == want_values.shape
    assert np.array_equal(got_values, want_values)
    for got, want in zip(got_grads, want_grads):
        assert np.array_equal(got, want)
    assert_finite_differences_agree(stacked, [table], [tracked], w)


# ---------------------------------------------------------------------------
# gru_sequence against the composed recurrence


def gru_operands(rng, items, steps, d, h, rows):
    """Visit rows, (B, T) positions into them (rows may repeat) and the nine
    gate weights."""
    visits = rng.normal(size=(rows, d))
    positions = rng.integers(0, rows, size=(items, steps))
    weights = [rng.normal(size=shape) for shape in [(d, h), (h, h), (h,)] * 3]
    return visits, positions, weights


def assert_gru_matches_composed(visits, positions, weights, tracked, seed):
    """States and the gradients of ``sum(states * w)`` equal the composed
    recurrence's bit for bit, for the tracked operands (``visits`` first)."""
    def call(gru):
        return lambda mod, xs: gru(xs[0], positions, xs[1:])

    operands = [visits, *weights]
    w = np.random.default_rng(seed).uniform(0.5, 1.5, size=(*positions.shape, weights[2].size))
    got_values, got_grads = run(ad, call(ad.gru_sequence), operands, tracked, w)
    want_values, want_grads = run(ad, call(composed_gru.gru_sequence), operands, tracked, w)
    assert np.array_equal(got_values, want_values)
    assert len(got_grads) == len(want_grads)
    for got, want in zip(got_grads, want_grads):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    return call(ad.gru_sequence), operands, w


@given(seed=seeds, items=st.integers(1, 6), steps=st.integers(1, 5), d=dims, h=dims,
       rows=st.integers(1, 8), data=st.data())
def test_gru_sequence_matches_the_composed_steps(seed, items, steps, d, h, rows, data):
    """Any mix of tracked and untracked visits and weights; all untracked
    records nothing (the inference path)."""
    visits, positions, weights = gru_operands(np.random.default_rng(seed), items, steps, d, h,
                                              rows)
    tracked = data.draw(st.lists(st.booleans(), min_size=10, max_size=10))
    assert_gru_matches_composed(visits, positions, weights, tracked, seed)


@pytest.mark.parametrize("items,h", [(3, 2 * ad.COLUMN_BLOCK + 3), (40, 5)])
def test_gru_sequence_keeps_the_bits_of_wide_states_and_large_buckets(items, h):
    """h above two ``COLUMN_BLOCK`` s, where every (B, 1, .) product of a step
    runs one column block at a time, in the op as in the composed steps; and
    a bucket of 40 sequences, whose bias gradients sum 40 rows per step."""
    visits, positions, weights = gru_operands(np.random.default_rng(7), items, 3, 4, h, 50)
    weights = [0.05 * w for w in weights]
    assert_gru_matches_composed(visits, positions, weights, [True] * 10, 7)


def test_gru_sequence_agrees_with_finite_differences():
    visits, positions, weights = gru_operands(np.random.default_rng(11), 3, 4, 3, 2, 5)
    call, operands, w = assert_gru_matches_composed(visits, positions, weights,
                                                    [True] * 10, 11)
    assert_finite_differences_agree(call, operands, [True] * 10, w)


def test_gru_sequence_records_one_entry_and_nothing_on_constants():
    visits, positions, weights = gru_operands(np.random.default_rng(13), 4, 3, 2, 3, 6)
    out = ad.gru_sequence(visits, positions, weights)
    assert out.tape is None and not out.tracked
    tape = ad.Tape()
    out = ad.gru_sequence(tape.leaf(visits), positions, weights)
    assert len(tape._entries) == 1 and out.shape == (4, 3, 3)
    tape = ad.Tape()
    ad.gru_sequence(visits, positions, [tape.leaf(w) for w in weights])
    assert len(tape._entries) == 1


def test_gru_sequence_rejects_bad_operands():
    visits, positions, weights = gru_operands(np.random.default_rng(17), 2, 3, 2, 3, 4)
    with pytest.raises(ad.DimensionError):
        ad.gru_sequence(visits, positions[:, :0], weights)
    with pytest.raises(ad.DimensionError):
        ad.gru_sequence(visits, positions[0], weights)
    with pytest.raises(ad.DimensionError):
        ad.gru_sequence(visits[0], positions, weights)
    with pytest.raises(ad.DimensionError):
        ad.gru_sequence(visits, positions, weights[:8])
    with pytest.raises(ad.DimensionError):
        ad.gru_sequence(visits, positions, [*weights[:8], np.zeros(2)])
    with pytest.raises(IndexError, match="row index 4"):
        ad.gru_sequence(visits, positions + 4, weights)


@pytest.mark.parametrize("name", ["fixture-diagnosis", "fixture-heart_failure",
                                  "train-small", "train-wide"])
def test_encode_visits_matches_the_composed_recurrence(problems, monkeypatch, name):
    """A 32-patient step with ``gru_sequence`` against the same step with the
    composed recurrence: the loss and every gradient bit for bit, and the
    scores of the inference path too."""
    net, batch, scored = problems[name]
    loss, leaves = net.loss_program(batch)()
    h_c = net.graph_forward(net._constants(), mode="train", update_stats=False).values
    scorer = FrozenScorer(net.config, net.params, h_c)
    scores = scorer.predict_examples(scored)
    monkeypatch.setattr(FrozenScorer, "encode_visits", composed_gru.encode_visits)
    want, want_leaves = net.loss_program(batch)()
    assert loss.values.tobytes() == want.values.tobytes()
    assert len(loss.tape._entries) < len(want.tape._entries)
    loss.backward()
    want.backward()
    for name, leaf in want_leaves.items():
        assert np.array_equal(leaves[name].grad, leaf.grad), name
    for (got, got_alpha), (want_scores, want_alpha) in zip(scores, scorer.predict_examples(scored)):
        assert got.tobytes() == want_scores.tobytes()
        assert (got_alpha is None) == (want_alpha is None)
        assert got_alpha is None or got_alpha.tobytes() == want_alpha.tobytes()


def test_group_mean_rejects_bad_groups():
    table = np.ones((3, 2))
    with pytest.raises(ValueError, match="empty group"):
        ad.group_mean(table, [np.array([0]), np.array([], dtype=np.intp)])
    with pytest.raises(ValueError, match="at least one group"):
        ad.group_mean(table, [])
    with pytest.raises(IndexError, match="row index 3"):
        ad.group_mean(table, [np.array([0, 3])])
    with pytest.raises(ad.DimensionError):
        ad.group_mean(np.ones(3), [np.array([0])])


# ---------------------------------------------------------------------------
# input coercion and broadcast rules


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
@pytest.mark.parametrize("sa,sb", [((4, 3), (4,)), ((4, 3), (4, 1)), ((2, 3), (3, 2)),
                                   ((3,), (2,)), ((1, 3), (2, 3)), ((2,), (2, 1))])
def test_disallowed_broadcasts_still_raise(op, sa, sb):
    for a, b in ((np.ones(sa), np.ones(sb)), (np.ones(sb), np.ones(sa))):
        with pytest.raises(ad.DimensionError):
            getattr(ad, op)(a, b)
        with pytest.raises(ad.DimensionError):
            getattr(old, op)(a, b)


@pytest.mark.parametrize("values", [
    3, [1, 2, 3], [[1.5, 2.5]], np.arange(3), np.arange(3, dtype=np.float32),
    np.array([True, False]), np.float32(2.5), np.arange(6.0).reshape(2, 3)[:, 1],
    np.arange(3, dtype=">f8"),
], ids=["int", "int-list", "float-list", "int-array", "float32-array", "bool-array",
        "float32-scalar", "strided-view", "big-endian"])
def test_inputs_become_float64(values):
    expected = np.asarray(values, dtype=np.float64)
    for made in (ad.constant(values), ad.Tape().leaf(values), ad.add(values, 0.0),
                 ad.mul(values, 1.0), ad.sigmoid(values)):
        assert made.values.dtype == np.float64
        assert made.values.dtype.isnative
        assert made.values.shape == expected.shape
    assert np.array_equal(ad.constant(values).values, expected)
    assert np.array_equal(ad.add(values, 0.0).values, old.add(values, 0.0).values)


def test_float64_array_is_not_copied():
    values = np.arange(4.0)
    assert ad.constant(values).values is values
    assert ad.Tape().leaf(values).values is values


def test_tape_entries_hold_no_closure():
    """Every recorded backward is a module-level function bound by ``partial``."""
    rng = np.random.default_rng(0)
    tape = ad.Tape()
    x, w = tape.leaf(rng.normal(size=(3, 2))), tape.leaf(rng.normal(size=(2, 2)))
    state = ad.BatchNormState(2)
    h = ad.batchnorm(ad.matmul(x, w), np.ones(2), np.zeros(2), state)
    h = ad.concat([ad.relu(h), ad.clamp(ad.sigmoid(h), -0.5, 0.5), h], axis=0)
    h = ad.softmax(ad.sub(1.0, ad.mul(ad.sigmoid(h), ad.add(h, 1.0))), axis=0)
    h = ad.group_mean(ad.gather_rows(h, [0, 1, 5]), [np.array([0, 2]), np.array([1])])
    pattern = sparse.csr_matrix(np.eye(2))
    h = ad.spmm(pattern, pattern.data, h)
    h = ad.matmul(ad.reshape(h, (2, 1, 2)), w)
    gates = [w, w, np.zeros(2)] * 3
    h = ad.gru_sequence(ad.reshape(h, (2, 2)), [[0, 1], [1, 0]], gates)
    loss = ad.fold_sum([ad.log(ad.reduce_mean(ad.reshape(ad.add(h, 2.0), (-1,)), axis=0))])
    for _, _, backward in tape._entries:
        assert isinstance(backward, functools.partial)
        assert backward.func.__closure__ is None
        assert backward.func.__qualname__ == backward.func.__name__
    loss.backward()
    assert all(np.isfinite(leaf.grad).all() for leaf in (x, w))
