"""The tape's backward pass against the eager reference sweep.

``Tape.backward`` defers the right-operand gradient of ``matmul`` and
resolves each node's deferred products in one GEMM; every scatter-add runs at
once. The eager sweep in ``eager_backward.py`` adds every contribution densely
as it arrives. The two must give the same loss bits, gradients equal to
1e-10, and the same bits wherever a gradient was never summed, and every case
must agree with finite differences.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cgl import autodiff as ad
from cgl import model
from cgl.data import GeneratorConfig, generate_synthetic, load_dataset
from cgl.experiment import TrainSettings, assemble
from cgl.ontology import load_ontology
from composed_gru import tanh
from eager_backward import eager_backward, tape_backward_by_node
from problem_fixtures import build_problem


def close(a, b, tol=1e-10):
    """Equal to ``tol``, relative to the largest magnitude in ``b`` when it exceeds 1."""
    scale = max(np.max(np.abs(b), initial=0.0), 1.0)
    return np.max(np.abs(np.asarray(a) - b), initial=0.0) <= tol * scale


def unsummed(sources):
    """Nodes whose gradient passed through no sum: a single contribution,
    from the loss or from another such node."""
    clean = set()
    for node in sorted(sources, reverse=True):  # an op's output outranks its inputs
        src = sources[node]
        if not src or (len(src) == 1 and src[0] in clean):
            clean.add(node)
    return clean


def assert_matches_eager(program):
    """Run ``program()`` (a fresh tape's ``(loss, leaves)``) once under the tape
    and once under the eager sweep; compare the loss and every node's gradient.
    Returns the tape's leaves and the nodes whose gradient passed through no sum."""
    loss_new, leaves_new = program()
    by_node = tape_backward_by_node(loss_new)
    loss_old, leaves_old = program()
    grads, sources = eager_backward(loss_old)
    assert np.array_equal(loss_new.values, loss_old.values)
    for node, g in grads.items():
        assert close(by_node[node], g), node
    clean = unsummed(sources)
    for node in clean:
        assert np.array_equal(by_node[node], grads[node]), node
    for name, leaf in leaves_old.items():
        if leaf.node_id not in grads:  # the loss never reached it
            assert np.array_equal(leaves_new[name].grad, leaf.grad), name
    return leaves_new, clean


# ---------------------------------------------------------------------------
# whole-model equivalence


def assert_rerun_byte_identical(program, first):
    loss, again = program()
    loss.backward()
    for name, leaf in again.items():
        assert leaf.grad.tobytes() == first[name].grad.tobytes(), name


@pytest.mark.parametrize("task", ["diagnosis", "heart_failure"])
def test_fixture_matches_eager_and_reruns_byte_identical(task):
    prob = build_problem(task=task, seed=1)
    program = prob.model.loss_program(prob.examples)
    first, _ = assert_matches_eager(program)
    assert_rerun_byte_identical(program, first)


@pytest.fixture(scope="module")
def wide_shaped(tmp_path_factory):
    """A small corpus of the train-wide workload's shape, with the default
    model config, and one 32-patient batch."""
    out = tmp_path_factory.mktemp("wide")
    generate_synthetic(GeneratorConfig(roots=2, branching=3, levels=4, patients=120),
                       seed=5, out_dir=out)
    settings = TrainSettings(split_counts=(84, 12, 24), config=model.ModelConfig())
    problem = assemble(load_dataset(out / "dataset.jsonl"),
                       load_ontology(out / "ontology.tsv"), settings)
    net = model.CollaborativeGraphModel(settings.config, problem.tree, problem.observation,
                                        problem.adjacency, len(problem.vocab), seed=3)
    return net, problem.examples["train"][:32]


def test_wide_shaped_step_matches_eager_and_reruns_byte_identical(wide_shaped):
    net, batch = wide_shaped
    program = net.loss_program(batch)
    first, _ = assert_matches_eager(program)
    assert_rerun_byte_identical(program, first)


# ---------------------------------------------------------------------------
# property tests: random shapes and index sets, finite differences and the
# eager sweep


def agrees_with_finite_differences(program, params):
    # The programs are smooth and at most cubic in a coordinate, so a wide
    # step keeps central differences far above float64 rounding.
    report = ad.check_gradients(program, params, step=1e-4, sample=40)
    assert report.max_rel_err < 1e-5, report.summary()


@given(seed=st.integers(0, 2**32 - 1),
       left_rows=st.lists(st.integers(-1, 4), min_size=1, max_size=4),
       inner=st.integers(1, 4), cols=st.integers(1, 4), right_1d=st.booleans())
def test_matmul_right_operand_used_k_times(seed, left_rows, inner, cols, right_1d):
    """A right operand shared by k products, 1-d or 2-d, reached only through
    deferred gradients. A left row count of -1 means a 1-d left operand."""
    rng = np.random.default_rng(seed)
    params = {"b": rng.normal(size=(inner,) if right_1d else (inner, cols))}
    weights = []
    for i, m in enumerate(left_rows):
        params[f"a{i}"] = rng.normal(size=(inner,) if m < 0 else (m, inner))
        weights.append(rng.normal(size=(() if m < 0 else (m,)) + (() if right_1d else (cols,))))

    def program():
        tape = ad.Tape()
        leaves = {name: tape.leaf(arr) for name, arr in params.items()}
        total = ad.constant(0.0)
        for i, w in enumerate(weights):
            out = tanh(ad.matmul(leaves[f"a{i}"], leaves["b"]))
            total = ad.add(total, ad.reduce_sum(ad.mul(out, w)))
        return total, leaves

    agrees_with_finite_differences(program, params)
    leaves, clean = assert_matches_eager(program)
    if len(left_rows) == 1:
        assert leaves["b"].node_id in clean


index_sets = st.lists(st.lists(st.integers(0, 4), max_size=6), min_size=1, max_size=4)


@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 5), width=st.integers(1, 3),
       gathers=index_sets, mixed_gathers=index_sets, vector_gather=st.lists(st.integers(0, 4)))
def test_gather_rows_repeated_empty_and_mixed(seed, rows, width, gathers, mixed_gathers,
                                               vector_gather):
    """``emb`` is reached only through scatters; ``x = tanh(table)`` gets
    scatters, a deferred product and a dense gradient; ``vec`` is a 1-d
    table. Index sets may repeat rows or be empty."""
    rng = np.random.default_rng(seed)
    params = {"emb": rng.normal(size=(rows, width)), "table": rng.normal(size=(rows, width)),
              "vec": rng.normal(size=rows)}
    gathers = [[i % rows for i in idx] for idx in gathers]
    mixed_gathers = [[i % rows for i in idx] for idx in mixed_gathers]
    vector_gather = [i % rows for i in vector_gather]
    w_emb = [rng.normal(size=(len(idx), width)) for idx in gathers]
    w_mixed = [rng.normal(size=(len(idx), width)) for idx in mixed_gathers]
    left = rng.normal(size=(2, rows))
    w_prod, w_dense = rng.normal(size=(2, width)), rng.normal(size=(rows, width))
    w_vec = rng.normal(size=len(vector_gather))

    def program():
        tape = ad.Tape()
        leaves = {name: tape.leaf(arr) for name, arr in params.items()}
        x = tanh(leaves["table"])
        terms = [ad.reduce_sum(ad.mul(ad.gather_rows(leaves["emb"], idx), w))
                 for idx, w in zip(gathers, w_emb)]
        terms += [ad.reduce_sum(ad.mul(ad.gather_rows(x, idx), w))
                  for idx, w in zip(mixed_gathers, w_mixed)]
        terms.append(ad.reduce_sum(ad.mul(ad.matmul(left, x), w_prod)))
        terms.append(ad.reduce_sum(ad.mul(ad.mul(x, x), w_dense)))
        terms.append(ad.reduce_sum(ad.mul(ad.gather_rows(leaves["vec"], vector_gather), w_vec)))
        total = terms[0]
        for term in terms[1:]:
            total = ad.add(total, term)
        return total, leaves

    agrees_with_finite_differences(program, params)
    leaves, clean = assert_matches_eager(program)
    untouched = sorted(set(range(rows)) - {i for idx in gathers for i in idx})
    assert np.all(leaves["emb"].grad[untouched] == 0.0)
    if len(gathers) == 1:
        assert leaves["emb"].node_id in clean


def test_deferred_contribution_resolves_alone():
    """``np.asarray`` of a deferred product is the dense gradient the op used
    to return; a gather's gradient is its dense scatter already."""
    rng = np.random.default_rng(2)
    a, b, g = rng.normal(size=(3, 4)), rng.normal(size=(4,)), rng.normal(size=3)
    tape = ad.Tape()
    ad.matmul(a, tape.leaf(b))
    _, gb = tape._entries[-1][2](g)
    assert np.array_equal(np.asarray(gb), (a.T @ g[:, None])[:, 0])
    table = rng.normal(size=(5, 2))
    tape = ad.Tape()
    ad.gather_rows(tape.leaf(table), [4, 0, 4])
    (gt,) = tape._entries[-1][2](np.ones((3, 2)))
    assert type(gt) is np.ndarray
    expected = np.zeros((5, 2))
    expected[[0, 4]] = [[1.0, 1.0], [2.0, 2.0]]
    assert np.array_equal(np.asarray(gt), expected)
