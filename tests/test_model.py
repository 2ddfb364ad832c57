import math
import types
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from cgl import autodiff as ad
from cgl import data, graphs, metrics, model, ontology
from eager_backward import eager_backward
from oracles import label_vectors
from problem_fixtures import build_problem, tiny_dataset

SIG = lambda v: 1.0 / (1.0 + np.exp(-v))


# ---------------------------------------------------------------------------
# hierarchical embedding


@pytest.mark.parametrize("key,value", [
    ("use_notes", "yes"), ("use_notes", 1), ("epochs", 2.5), ("epochs", True),
    ("gru_hidden", "16"), ("learning_rate", "0.1"), ("task", 1),
    ("code_layer_dims", (8, True)), ("code_layer_dims", 8), ("patient_layer_dims", "8"),
])
def test_config_value_must_have_its_default_type(key, value):
    with pytest.raises(ValueError, match=repr(key)):
        model.ModelConfig(**{key: value})


def test_config_accepts_an_int_for_a_float_and_a_list_for_a_tuple():
    cfg = model.ModelConfig(learning_rate=1, note_loss_weight=0, code_layer_dims=[8, 8])
    assert cfg.learning_rate == 1 and cfg.code_layer_dims == (8, 8)


def test_hierarchical_embedding_width():
    prob = build_problem(code_dim=32)
    h = prob.model.code_base_embedding(prob.model._constants())
    assert h.shape == (prob.tree.n_leaves, prob.tree.levels * 32)  # K * d_c columns


def test_sibling_leaves_share_ancestor_columns():
    prob = build_problem()
    e = prob.model.code_base_embedding(prob.model._constants()).values
    tree = prob.tree
    i, j = tree.leaf_index["d0.a.0"], tree.leaf_index["d0.a.1"]
    d = prob.config.code_dim
    shared = (tree.levels - 1) * d
    assert np.array_equal(e[i, :shared], e[j, :shared])
    assert not np.array_equal(e[i, shared:], e[j, shared:])


def test_hierarchical_rows_match_hand_lookup():
    # K = 2, d_c = 1: row = [root embedding, leaf embedding]
    edges = [("r", None), ("a", "r"), ("b", "r")]
    prob = build_problem(
        dataset=data.EhrDataset([
            data.Patient("p0", [data.Visit(["a"], ["w"]), data.Visit(["b"], ["w"])],
                         split="train"),
            data.Patient("p1", [data.Visit(["b"], ["w"]), data.Visit(["a"], ["w"])],
                         split="train"),
        ]),
        edges=edges, hf_prefix="a", code_dim=1)
    m = prob.model
    e1 = m.params.arrays["level_embed_1"]
    e2 = m.params.arrays["level_embed_2"]
    rows = m.code_base_embedding(m._constants()).values
    assert np.array_equal(rows[0], [e1[0, 0], e2[0, 0]])  # leaf "a"
    assert np.array_equal(rows[1], [e1[0, 0], e2[1, 0]])  # leaf "b"


def test_flat_embedding_ablation():
    prob = build_problem(use_hierarchical_embedding=False)
    m = prob.model
    assert "code_embed" in m.params.arrays
    assert "level_embed_1" not in m.params.arrays
    h = m.code_base_embedding(m._constants())
    assert h.shape == (m.n_codes, prob.tree.levels * prob.config.code_dim)


# ---------------------------------------------------------------------------
# ontology weights


def dense_phi(m, phi):
    """The (n_codes, n_codes) weight matrix: the per-link weights on the links."""
    return sparse.csr_matrix((phi, m.links.indices, m.links.indptr), shape=m.links.shape).toarray()


def test_ontology_weights_neutral_start():
    prob = build_problem()
    m = prob.model
    phi = m.ontology_weights(m._constants()).values
    assert phi.shape == (m.links.nnz,)  # one weight per link
    support = m.links.toarray() != 0
    assert np.all(dense_phi(m, phi)[support] == 0.5)  # sigmoid(0)
    assert np.all(dense_phi(m, phi)[~support] == 0.0)


def test_ontology_weights_level_two_edge():
    prob = build_problem()
    m = prob.model
    ij = np.argwhere(m.links.toarray() == 2)
    assert ij.size, "fixture must contain a level-2 link"
    i, j = ij[0]
    m.params.arrays["onto_slope"][j] = 1.0
    phi = dense_phi(m, m.ontology_weights(m._constants()).values)
    assert abs(phi[i, j] - SIG(2.0)) < 1e-12
    assert abs(phi[i, j] - 0.8808) < 1e-4


def test_ontology_weights_are_columnwise():
    prob = build_problem()
    m = prob.model
    support = (m.links.toarray() != 0).astype(float)
    j = int(np.argwhere(support.sum(axis=0) > 0).ravel()[0])
    m.params.arrays["onto_shift"][j] = 3.0
    phi = dense_phi(m, m.ontology_weights(m._constants()).values)
    col = support[:, j] != 0
    assert np.all(phi[col, j] != 0.5)
    other = support.copy()
    other[:, j] = 0
    assert np.all(phi[other != 0] == 0.5)


def test_ontology_weights_ablation_binary():
    prob = build_problem(use_ontology_weights=False)
    m = prob.model
    phi = m.ontology_weights(m._constants()).values
    assert np.array_equal(dense_phi(m, phi), (m.links.toarray() != 0).astype(float))


def test_masking_survives_training():
    prob = build_problem(epochs=2)
    model.fit(prob.model, prob.examples, seed=0, epochs=2)
    m = prob.model
    phi = dense_phi(m, m.ontology_weights(m._constants()).values)
    assert np.all(phi[prob.adj.adjacency.toarray() == 0] == 0.0)


# ---------------------------------------------------------------------------
# graph layers


def test_aggregate_residual_identity():
    rng = np.random.default_rng(0)
    h_p = ad.constant(rng.normal(size=(3, 4)))
    h_c = ad.constant(rng.normal(size=(5, 6)))
    empty_obs = sparse.csr_matrix((3, 5))
    links = sparse.csr_matrix(rng.integers(0, 2, size=(5, 5)).astype(float))
    phi = ad.constant(np.zeros(links.nnz))
    z_p, z_c = model.aggregate(h_p, h_c, empty_obs, empty_obs.T.tocsr(), links, phi,
                               ad.constant(rng.normal(size=(6, 4))),
                               ad.constant(rng.normal(size=(4, 6))))
    assert np.array_equal(z_p.values, h_p.values)
    assert np.array_equal(z_c.values, h_c.values)


def test_aggregate_matches_dense_oracle():
    rng = np.random.default_rng(1)
    n_u, n_c, d_p, d_c = 2, 3, 4, 5
    h_p, h_c = rng.normal(size=(n_u, d_p)), rng.normal(size=(n_c, d_c))
    obs = rng.integers(0, 2, size=(n_u, n_c)).astype(float)
    links = sparse.csr_matrix(rng.integers(0, 2, size=(n_c, n_c)).astype(float))
    phi = rng.normal(size=links.nnz)
    dense = sparse.csr_matrix((phi, links.indices, links.indptr), shape=links.shape).toarray()
    w_cu, w_uc = rng.normal(size=(d_c, d_p)), rng.normal(size=(d_p, d_c))
    graph_args = (sparse.csr_matrix(obs), sparse.csr_matrix(obs.T), links, ad.constant(phi))
    z_p, z_c = model.aggregate(ad.constant(h_p), ad.constant(h_c), *graph_args,
                               ad.constant(w_cu), ad.constant(w_uc))
    assert np.max(np.abs(z_p.values - (h_p + obs @ h_c @ w_cu))) < 1e-12
    assert np.max(np.abs(z_c.values - (h_c + obs.T @ h_p @ w_uc + dense @ h_c))) < 1e-12
    no_p, last_c = model.aggregate(ad.constant(h_p), ad.constant(h_c), *graph_args, None,
                                   ad.constant(w_uc))
    assert no_p is None
    assert np.array_equal(last_c.values, z_c.values)


def dense_ontology_weights(self, leaves):
    """sigmoid(slope_j * level + shift_j) over the whole (n, n) level matrix,
    masked to the links: the dense weights the per-link ones replace."""
    levels = self.links.toarray()
    support = (levels != 0).astype(np.float64)
    if not self.config.use_ontology_weights:
        return ad.constant(support)
    pre = ad.add(ad.mul(ad.constant(levels), leaves["onto_slope"]), leaves["onto_shift"])
    return ad.mul(ad.sigmoid(pre), ad.constant(support))


def inline_graph_forward(self, leaves, mode, update_stats):
    """The graph layers on dense arrays built from the CSR graphs, with the
    aggregation written out inline: the oracle that the sparse
    ``graph_forward`` must match."""
    h_p = leaves["patient_embed"]
    h_c = self.code_base_embedding(leaves)
    phi = dense_ontology_weights(self, leaves)
    obs = ad.constant(self.obs.toarray())
    obs_t = ad.constant(np.ascontiguousarray(self.obs.toarray().T))
    for l in range(self.config.num_layers):
        last = l == self.config.num_layers - 1
        z_c = ad.add(ad.add(h_c, ad.matmul(ad.matmul(obs_t, h_p),
                                           leaves[f"graph_{l}_patient_to_code"])),
                     ad.matmul(phi, h_c))
        if not last:
            z_p = ad.add(h_p, ad.matmul(ad.matmul(obs, h_c),
                                        leaves[f"graph_{l}_code_to_patient"]))
            h_p = ad.relu(ad.batchnorm(
                ad.matmul(z_p, leaves[f"graph_{l}_patient_out"]),
                leaves[f"graph_{l}_bn_patient_scale"],
                leaves[f"graph_{l}_bn_patient_shift"],
                self.params.bn[f"graph_{l}_bn_patient"], mode, update_stats))
        h_c = ad.relu(ad.batchnorm(
            ad.matmul(z_c, leaves[f"graph_{l}_code_out"]),
            leaves[f"graph_{l}_bn_code_scale"],
            leaves[f"graph_{l}_bn_code_shift"],
            self.params.bn[f"graph_{l}_bn_code"], mode, update_stats))
    return h_c


def close(a, b, tol=1e-12):
    """Equal to ``tol``, relative to the largest magnitude in ``b`` when it exceeds 1."""
    return np.max(np.abs(np.asarray(a) - b), initial=0.0) <= tol * max(np.max(np.abs(b)), 1.0)


@pytest.mark.parametrize("n_layers", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_graph_layers_bit_identical_to_inline_oracle(seed, n_layers):
    """The loss and every gradient but the link-weight ones are bit-identical
    to the dense oracle, with and without the two graph ablations. The slope
    and shift gradients sum the same per-link terms in another order (per
    link, then by source column), so they, the 3-epoch history and the frozen
    code features match to 1e-12. Gradients come from the eager sweep, which
    adds contributions in the order they arrive: the tape defers the oracle's
    dense products into h_c and h_p, and the sparse path's spmm products it
    does not, so under the tape the two sum the same terms in another order."""
    for ablate in ({}, {"use_ontology_weights": False}, {"use_observation_graph": False}):
        check_against_dense_oracle(seed, n_layers, ablate)


def check_against_dense_oracle(seed, n_layers, ablate):
    dims = dict(code_layer_dims=(8,) * n_layers, patient_layer_dims=(6,) * (n_layers - 1))
    new, old = (build_problem(seed=seed, **dims, **ablate) for _ in range(2))
    old.model.graph_forward = types.MethodType(inline_graph_forward, old.model)
    (loss_new, leaves_new), (loss_old, leaves_old) = (
        prob.model.loss_program(prob.examples)() for prob in (new, old))
    eager_backward(loss_new)
    eager_backward(loss_old)
    assert loss_new.item() == loss_old.item()
    assert set(leaves_new) == set(leaves_old)
    for name in leaves_new:
        if name in ("onto_slope", "onto_shift"):
            assert close(leaves_new[name].grad, leaves_old[name].grad), name
        else:
            assert np.array_equal(leaves_new[name].grad, leaves_old[name].grad), name

    histories = [model.fit(prob.model, prob.examples, prob.examples, seed=seed, epochs=3,
                           metric_ks=(3,)) for prob in (new, old)]
    assert [set(row) for row in histories[0]] == [set(row) for row in histories[1]]
    for row_new, row_old in zip(*histories):
        for key in row_old:
            assert close(row_new[key], row_old[key]), key
    assert close(new.model.frozen_code_repr, old.model.frozen_code_repr)


def test_graph_forward_output_shapes():
    prob = build_problem()
    h_c = prob.model.graph_forward(prob.model._constants(), mode="train",
                                   update_stats=False)
    assert h_c.shape == (prob.model.n_codes, prob.config.code_layer_dims[-1])


def test_graph_layers_zero_maps_give_zero():
    prob = build_problem()
    m = prob.model
    for name, arr in m.params.arrays.items():
        if name.startswith("graph_") and "bn" not in name:
            arr[:] = 0.0
    h_c = m.graph_forward(m._constants(), mode="train", update_stats=False)
    assert np.all(h_c.values == 0.0)


def test_patient_permutation_leaves_code_features_unchanged():
    prob = build_problem()
    m = prob.model
    h1 = m.graph_forward(m._constants(), mode="train", update_stats=False).values
    perm = np.random.default_rng(3).permutation(m.n_patients)
    m.obs = m.obs[perm]
    m.obs_t = m.obs.T.tocsr()
    m.params.arrays["patient_embed"] = m.params.arrays["patient_embed"][perm]
    h2 = m.graph_forward(m._constants(), mode="train", update_stats=False).values
    assert np.max(np.abs(h1 - h2)) < 1e-10


# ---------------------------------------------------------------------------
# visit embedding and GRU


def test_visit_embedding_cases():
    prob = build_problem()
    m = prob.model
    rng = np.random.default_rng(5)
    h_c = ad.constant(rng.normal(size=(m.n_codes, 8)))

    def pool(table, *visits):
        return m.pool_visits(table, [replace(prob.examples[0], visit_codes=list(visits))])

    single = pool(h_c, np.array([3]))
    assert np.array_equal(single.values, h_c.values[[3]])
    opposite = h_c.values.copy()
    opposite[1] = -opposite[0]
    v = pool(ad.constant(opposite), np.array([0, 1]))
    assert np.max(np.abs(v.values)) < 1e-15
    v3 = pool(h_c, np.array([0, 4, 7]))
    assert np.max(np.abs(v3.values[0] - h_c.values[[0, 4, 7]].mean(axis=0))) < 1e-12
    together = pool(h_c, np.array([3]), np.array([0, 4, 7]))
    assert np.array_equal(together.values, np.concatenate([single.values, v3.values]))
    with pytest.raises(ValueError):
        pool(h_c, np.array([], dtype=np.intp))


def encode_one(m, xs):
    """``encode_visits`` for one patient whose visits are the rows of ``xs``."""
    return m.encode_visits(m._constants(), ad.constant(xs), np.arange(len(xs))[None, :])


def test_single_visit_attention_is_identity():
    prob = build_problem()
    m = prob.model
    vec = np.random.default_rng(7).normal(size=(1, prob.config.code_layer_dims[-1]))
    rows, alpha, o_v = encode_one(m, vec)
    assert np.array_equal(alpha.values, [[[1.0]]])
    assert np.array_equal(o_v.values[0], rows.values[0])


def test_zero_gru_weights_give_zero_states():
    prob = build_problem()
    m = prob.model
    for name in m.params.arrays:
        if name.startswith("gru_"):
            m.params.arrays[name][:] = 0.0
    rows, alpha, o_v = encode_one(m, np.ones((3, prob.config.code_layer_dims[-1])))
    assert np.all(rows.values == 0.0)
    assert np.all(o_v.values == 0.0)
    assert np.allclose(alpha.values, 1 / 3)


def test_gru_single_step_matches_gate_oracle():
    # hand evaluation of z = sig(xW+b), r = sig(xW'+b'), n = tanh(xW''+b''),
    # h = z*0 + (1-z)*n from the zero initial state
    prob = build_problem(code_dim=1, patient_layer_dims=(2,), code_layer_dims=(2, 2),
                         gru_hidden=2)
    m = prob.model
    rng = np.random.default_rng(11)
    for gate in ("update", "reset", "cand"):
        m.params.arrays[f"gru_in_{gate}"][:] = rng.normal(size=(2, 2))
        m.params.arrays[f"gru_state_{gate}"][:] = rng.normal(size=(2, 2))
        m.params.arrays[f"gru_bias_{gate}"][:] = rng.normal(size=2)
    x = rng.normal(size=2)
    rows, _, _ = encode_one(m, x[None, :])
    a = m.params.arrays
    z = SIG(x @ a["gru_in_update"] + a["gru_bias_update"])
    n = np.tanh(x @ a["gru_in_cand"] + a["gru_bias_cand"])
    expected = (1.0 - z) * n
    assert np.max(np.abs(rows.values[0, 0] - expected)) < 1e-10


def test_attention_convexity():
    prob = build_problem()
    m = prob.model
    rng = np.random.default_rng(13)
    rows, alpha, o_v = encode_one(m, rng.normal(size=(4, prob.config.code_layer_dims[-1])))
    assert abs(alpha.values.sum() - 1.0) < 1e-12
    assert np.all(alpha.values >= 0)
    mix = alpha.values[0, 0] @ rows.values[0]
    assert np.max(np.abs(o_v.values[0, 0] - mix)) < 1e-12


# ---------------------------------------------------------------------------
# note attention and penalty


def attend_one(m, tokens, o_v):
    """``note_attention`` on a batch of one note: its (L,) weights, or None
    when the note is empty and so in no stack, and its (h,) summary o_n."""
    stacks, o_n = m.note_attention(m._constants(), [tokens],
                                   ad.reshape(o_v, (1, o_v.shape[0], 1)))
    assert o_n.shape == (1, 1, o_v.shape[0])
    if not stacks:
        return None, ad.constant(o_n.values[0, 0])
    [stack] = stacks
    assert np.array_equal(stack.members, [0])
    return ad.constant(stack.alpha.values[0, 0]), ad.constant(o_n.values[0, 0])


def test_note_attention_identical_tokens():
    prob = build_problem()
    m = prob.model
    o_v = ad.constant(np.random.default_rng(17).normal(size=prob.config.gru_hidden))
    alpha, o_n = attend_one(m, np.array([2, 2, 2]), o_v)
    assert np.allclose(alpha.values, 1 / 3)
    projected = m.params.arrays["word_embed"][2] @ m.params.arrays["word_proj"]
    assert np.max(np.abs(o_n.values - projected)) < 1e-12


def test_note_attention_three_token_oracle():
    prob = build_problem()
    m = prob.model
    rng = np.random.default_rng(19)
    o_v = rng.normal(size=prob.config.gru_hidden)
    tokens = np.array([0, 3, 1])
    alpha, o_n = attend_one(m, tokens, ad.constant(o_v))
    proj = m.params.arrays["word_embed"][tokens] @ m.params.arrays["word_proj"]
    scores = proj @ o_v
    e = np.exp(scores - scores.max())
    want_alpha = e / e.sum()
    assert np.max(np.abs(alpha.values - want_alpha)) < 1e-12
    assert np.max(np.abs(o_n.values - want_alpha @ proj)) < 1e-12
    assert abs(alpha.values.sum() - 1.0) < 1e-12


def test_note_attention_empty_note():
    prob = build_problem()
    m = prob.model
    alpha, o_n = attend_one(m, np.array([], dtype=np.intp),
                            ad.constant(np.zeros(prob.config.gru_hidden)))
    assert alpha is None
    assert np.all(o_n.values == 0.0)


def one_note(values):
    """A stack of one note, (1, 1, L), as ``batch_loss`` passes it."""
    return np.asarray(values, dtype=np.float64).reshape(1, 1, -1)


def test_rectified_penalty_half_targets():
    alpha = ad.constant(one_note([0.2, 0.5, 0.3]))
    beta = one_note(np.full(3, 0.5))
    got = model.rectified_penalty(alpha, beta).item()
    assert abs(got - 3 * math.log(2)) < 1e-12


def test_rectified_penalty_empty_and_mismatch():
    assert model.rectified_penalty(ad.constant(one_note([])), one_note([])).item() == 0.0
    with pytest.raises(ValueError):
        model.rectified_penalty(ad.constant(one_note([0.5])), one_note([0.5, 0.5]))


def test_rectified_penalty_direct_formula():
    alpha = one_note([0.7, 0.3])
    beta = one_note([0.9, 0.1])
    want = -(0.7 * math.log(0.9) + 0.3 * math.log(0.1)
             + 0.3 * math.log(0.1) + 0.7 * math.log(0.9))
    got = model.rectified_penalty(ad.constant(alpha), beta).item()
    assert abs(got - want) < 1e-12


# ---------------------------------------------------------------------------
# forward, loss, inference


def test_zero_head_gives_half_scores():
    prob = build_problem()
    m = prob.model
    model.fit(m, prob.examples, seed=0, epochs=1)  # populate bn stats
    m.params.arrays["head_weight"][:] = 0.0
    m.params.arrays["head_bias"][:] = 0.0
    m.freeze_code_embeddings()
    [(scores, _)] = m.predict_examples(prob.examples[:1])
    assert scores.shape == (m.n_codes,)  # diagnosis scores cover every code
    assert np.all(scores == 0.5)


def test_scores_lie_in_unit_interval():
    prob = build_problem()
    model.fit(prob.model, prob.examples, seed=0, epochs=1)
    scores = model.predict_scores(prob.model, prob.examples)
    assert np.all((scores > 0) & (scores < 1))


def test_unknown_feature_code_names_code_and_patient():
    prob = build_problem()
    prob.dataset.patients[1].visits[0].codes.append("zz")
    with pytest.raises(ValueError, match=r"unknown code 'zz' \(patient p1\)"):
        model.prepare_examples(prob.dataset, "train", prob.tree, prob.vocab, prob.labels)


def test_inference_before_freeze_rejected():
    prob = build_problem()
    with pytest.raises(RuntimeError):
        prob.model.predict_examples(prob.examples[:1])


def test_frozen_inference_matches_infer_mode_graph_pass():
    prob = build_problem()
    m = prob.model
    model.fit(m, prob.examples, seed=0, epochs=2)
    [(frozen_scores, _)] = m.predict_examples(prob.examples[:1])
    leaves = m._constants()
    h_c = m.graph_forward(leaves, mode="infer", update_stats=False)
    y_hat, _, _ = m.patient_forward(leaves, m.pool_visits(h_c, prob.examples[:1]),
                                    prob.examples[:1])
    assert np.max(np.abs(frozen_scores - y_hat.values[0, 0])) < 1e-9


def test_cross_entropy_at_clamp_bounds():
    y = np.array([1.0, 0.0, 1.0, 0.0])
    got = model.CollaborativeGraphModel._cross_entropy(ad.constant(y), y).item()
    assert abs(got - (-math.log1p(-model.CLAMP_EPS))) < 1e-12
    assert got < 2e-6


def test_batch_loss_matches_direct_formula():
    prob = build_problem()
    m = prob.model
    lam = m.config.note_loss_weight
    tape = ad.Tape()
    leaves = m._leaves(tape)
    h_c = m.graph_forward(leaves, mode="train", update_stats=False)
    loss, ce_mean, pen_mean = m.batch_loss(leaves, h_c, prob.examples)

    # oracle: recompute from raw forward outputs on a fresh pass
    leaves2 = m._constants()
    h_c2 = m.graph_forward(leaves2, mode="train", update_stats=False)
    ce_vals, pen_vals = [], []
    eps = model.CLAMP_EPS
    for ex in prob.examples:
        y_hat, _, [stack] = m.patient_forward(leaves2, m.pool_visits(h_c2, [ex]), [ex])
        p = np.clip(y_hat.values[0, 0], eps, 1 - eps)
        y = label_vectors([ex.positives], prob.tree.n_leaves)[0]
        ce_vals.append(float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))))
        a = stack.alpha.values[0, 0]
        pen_vals.append(float(-np.sum(a * np.log(ex.beta) + (1 - a) * np.log1p(-ex.beta))))
    want = np.mean(ce_vals) + lam * np.mean(pen_vals)
    assert abs(loss.item() - want) < 1e-12
    assert abs(ce_mean.item() - np.mean(ce_vals)) < 1e-12
    assert abs(pen_mean.item() - np.mean(pen_vals)) < 1e-12


def test_no_notes_config_drops_penalty():
    prob = build_problem(use_notes=False, note_loss_weight=0.0)
    m = prob.model
    loss, ce, pen = m.training_loss(prob.examples)
    assert pen == 0.0
    assert loss == ce


def test_onset_split_reads_every_feature_visit():
    """``compute_metrics`` splits recall by the codes of every feature visit,
    not only the latest: it equals ``onset_split_recall`` on the stacked
    per-patient rows examples once held. Each patient's label repeats a code
    of an earlier feature visit that the latest one lacks."""
    v = data.Visit
    dataset = data.EhrDataset([
        data.Patient("q0", [v(["d0.a.0"], ["fever"]), v(["d0.b.0"], ["cough"]),
                            v(["d0.a.0", "d0.b.1"])], split="train"),
        data.Patient("q1", [v(["d1.a.0", "d1.a.1"], ["rash"]), v(["d1.b.0"], ["itch"]),
                            v(["d1.a.1", "d0.a.2"])], split="train"),
        data.Patient("q2", [v(["d1.b.2"], ["rash"]), v(["d1.b.1"], ["fever"]),
                            v(["d1.b.2", "d1.b.1"])], split="train"),
    ])
    prob = build_problem(dataset=dataset)
    n = prob.tree.n_leaves
    patients = dataset.split_patients("train")
    labels = label_vectors([prob.tree.resolve(p.label_visit.codes, p.pid) for p in patients], n)
    occurred = label_vectors([[i for visit in p.feature_visits
                               for i in prob.tree.resolve(visit.codes, p.pid)]
                              for p in patients], n)
    scores = np.random.default_rng(5).uniform(size=(len(patients), n))
    got = model.compute_metrics(scores, prob.examples, "diagnosis", ks=(3, n), include_onset=True)
    for k in (3, n):
        want = metrics.onset_split_recall(scores, labels, occurred, k)
        assert (got[f"occurred_r{k}"], got[f"new_onset_r{k}"]) == want
    assert got[f"occurred_r{n}"] > 0.0


def test_heart_failure_task_scalar_output():
    prob = build_problem(task="heart_failure")
    m = prob.model
    model.fit(m, prob.examples, seed=0, epochs=1)
    [(scores, _)] = m.predict_examples(prob.examples[:1])
    assert scores.shape == (1,)
    labels = label_vectors([ex.positives for ex in prob.examples], 1)[:, 0]
    assert np.array_equal(labels, [1.0, 1.0, 0.0, 0.0])  # from the HF prefix


# ---------------------------------------------------------------------------
# training behaviour


def test_one_epoch_reduces_loss():
    prob = build_problem(learning_rate=5e-3)
    m = prob.model
    before, _, _ = m.training_loss(prob.examples)
    model.fit(m, prob.examples, seed=0, epochs=1)
    after, _, _ = m.training_loss(prob.examples)
    assert after < before


def test_fixed_seed_identical_trajectory():
    h1 = model.fit(build_problem(seed=4).model, build_problem(seed=4).examples,
                   seed=9, epochs=3)
    h2 = model.fit(build_problem(seed=4).model, build_problem(seed=4).examples,
                   seed=9, epochs=3)
    assert [r["train_loss"] for r in h1] == [r["train_loss"] for r in h2]


def test_fit_records_validation_metrics():
    prob = build_problem()
    history = model.fit(prob.model, prob.examples, prob.examples, seed=0,
                        epochs=2, metric_ks=(3,))
    assert len(history) == 2
    assert {"epoch", "train_loss", "wf1", "r3"} <= set(history[-1])


def test_divergence_detection():
    prob = build_problem()
    prob.model.params.arrays["head_weight"][:] = np.inf
    with pytest.raises(model.TrainingDivergenceError):
        model.fit(prob.model, prob.examples, seed=0, epochs=1)


def test_code_order_within_visit_is_irrelevant():
    ds1 = tiny_dataset()
    ds2 = tiny_dataset()
    for p in ds2.patients:
        for v in p.visits:
            v.codes = list(reversed(v.codes))
    p1 = build_problem(dataset=ds1)
    p2 = build_problem(dataset=ds2)
    for e1, e2 in zip(p1.examples, p2.examples):
        for a, b in zip(e1.visit_codes, e2.visit_codes):
            assert np.array_equal(a, b)
    h1 = p1.model.graph_forward(p1.model._constants(), "train", update_stats=False)
    h2 = p2.model.graph_forward(p2.model._constants(), "train", update_stats=False)
    assert np.array_equal(h1.values, h2.values)


def test_observation_graph_ablation_zeroes_adjacency():
    prob = build_problem(use_observation_graph=False)
    assert prob.model.obs.shape == prob.obs.matrix.shape
    assert prob.model.obs.nnz == 0 and prob.model.obs_t.nnz == 0
    loss, _, _ = prob.model.training_loss(prob.examples)
    assert math.isfinite(loss)


# ---------------------------------------------------------------------------
# gradient fidelity on the full network


def test_full_model_gradients_match_finite_differences():
    prob = build_problem(seed=1)
    m = prob.model
    report = ad.check_gradients(m.loss_program(prob.examples), m.params.arrays,
                                step=1e-6, sample=40, seed=2)
    assert report.max_rel_err < 1e-4, report.summary()
    expected = set(m.params.arrays)
    assert set(report.arrays) == expected
