import numpy as np
import pytest
from scipy import sparse

from cgl import graphs as gr
from cgl import ontology as onto
from cgl.data import EhrDataset, Patient, Visit
from oracles import lca_level, leaf_for


def flat_tree(codes):
    return onto.load_ontology([("root", None)] + [(c, "root") for c in codes])


def make_dataset(records):
    """records: list of (pid, split, [visit-code-lists])."""
    patients = [
        Patient(pid, [Visit(list(codes)) for codes in visits], split=split)
        for pid, split, visits in records
    ]
    return EhrDataset(patients)


def brute_observation(dataset, tree):
    """Oracle: per-pair membership check over feature visits."""
    patients = dataset.split_patients("train")
    out = np.zeros((len(patients), tree.n_leaves))
    for u, p in enumerate(patients):
        for i, code in enumerate(tree.leaf_ids):
            if any(code in v.codes for v in p.visits[:-1]):
                out[u, i] = 1.0
    return out


def brute_cooccurrence(dataset, tree):
    """Oracle: O(visits * |C_t|^2) pair enumeration."""
    n = tree.n_leaves
    out = np.zeros((n, n))
    for p in dataset.split_patients("train"):
        for v in p.visits[:-1]:
            idx = sorted({leaf_for(tree, c) for c in v.codes})
            for a in idx:
                for b in idx:
                    if a != b:
                        out[a, b] = 1.0
    return out


def test_observation_single_patient_row():
    tree = flat_tree(["c0", "c1", "c2"])
    ds = make_dataset([("u1", "train", [["c0", "c2"], ["c1"]])])
    obs = gr.build_observation(ds, tree)
    assert sparse.isspmatrix_csr(obs.matrix)
    assert np.array_equal(obs.matrix.toarray(), [[1.0, 0.0, 1.0]])
    assert obs.patient_index == {"u1": 0}


def test_observation_empty_training_set():
    tree = flat_tree(["c0", "c1"])
    ds = make_dataset([("u1", "test", [["c0"], ["c1"]])])
    obs = gr.build_observation(ds, tree)
    assert obs.matrix.shape == (0, 2)


def test_observation_label_visit_excluded():
    tree = flat_tree(["c0", "c1"])
    ds = make_dataset([("u1", "train", [["c0"], ["c1"]])])
    obs = gr.build_observation(ds, tree)
    assert np.array_equal(obs.matrix.toarray(), [[1.0, 0.0]])


def test_observation_unknown_code():
    tree = flat_tree(["c0"])
    ds = make_dataset([("u1", "train", [["mystery"], ["c0"]])])
    with pytest.raises(ValueError, match="mystery"):
        gr.build_observation(ds, tree)


def test_observation_matches_brute_force():
    rng = np.random.default_rng(3)
    codes = [f"c{i}" for i in range(8)]
    tree = flat_tree(codes)
    records = []
    for u in range(5):
        visits = [list(rng.choice(codes, size=3, replace=False)) for _ in range(3)]
        records.append((f"u{u}", "train", visits))
    ds = make_dataset(records)
    obs = gr.build_observation(ds, tree)
    assert np.array_equal(obs.matrix.toarray(), brute_observation(ds, tree))


def test_cooccurrence_within_visit():
    tree = flat_tree(["c0", "c1", "c2"])
    ds = make_dataset([("u1", "train", [["c0", "c1"], ["c2"]])])
    b = gr.build_cooccurrence(ds, tree, "visit")
    assert sparse.isspmatrix_csr(b)
    assert b[0, 1] == 1.0 and b[1, 0] == 1.0
    assert b[0, 2] == 0.0  # never co-visit
    assert np.all(b.diagonal() == 0)


def test_cooccurrence_scopes_differ():
    tree = flat_tree(["c0", "c1", "c2"])
    # c0 and c1 appear for the same patient but never in the same visit
    ds = make_dataset([("u1", "train", [["c0"], ["c1"], ["c2"]])])
    within_visit = gr.build_cooccurrence(ds, tree, scope="visit")
    within_patient = gr.build_cooccurrence(ds, tree, scope="patient")
    assert within_visit[0, 1] == 0.0
    assert within_patient[0, 1] == 1.0
    with pytest.raises(ValueError):
        gr.build_cooccurrence(ds, tree, scope="everything")


def test_cooccurrence_matches_brute_force():
    rng = np.random.default_rng(11)
    codes = [f"c{i}" for i in range(10)]
    tree = flat_tree(codes)
    records = []
    for u in range(6):
        visits = [list(rng.choice(codes, size=int(rng.integers(1, 5)), replace=False))
                  for _ in range(int(rng.integers(2, 5)))]
        records.append((f"u{u}", "train", visits))
    ds = make_dataset(records)
    assert np.array_equal(gr.build_cooccurrence(ds, tree, "visit").toarray(),
                          brute_cooccurrence(ds, tree))


def cousin_tree():
    # two roots; r1 has two level-3 sibling pairs, r2 has one pair
    edges = [("r1", None), ("r2", None),
             ("r1.a", "r1"), ("r1.b", "r1"), ("r2.a", "r2"),
             ("x1", "r1.a"), ("x2", "r1.a"), ("y1", "r1.b"), ("y2", "r1.b"),
             ("z1", "r2.a"), ("z2", "r2.a")]
    return onto.load_ontology(edges)


def test_adjacency_masking():
    tree = cousin_tree()
    i, j = tree.leaf_index["x1"], tree.leaf_index["x2"]
    k = tree.leaf_index["y1"]
    cooc = np.zeros((tree.n_leaves, tree.n_leaves))
    cooc[i, j] = cooc[j, i] = 1.0
    adj = gr.build_ontology_adjacency(tree, cooc)
    dense = adj.adjacency.toarray()
    assert dense[i, j] == 2.0  # siblings share their level-2 parent
    assert lca_level(tree, i, k) == 1  # cousins under the same root
    assert dense[i, k] == 0.0  # masked: never co-occur
    assert adj.adjacency.nnz == 2
    # with every pair co-occurring, cousins link at level 1 and other roots not at all
    full = gr.build_ontology_adjacency(tree, 1.0 - np.eye(tree.n_leaves)).adjacency
    assert full[i, k] == 1.0
    assert full[i, tree.leaf_index["z1"]] == 0.0


def test_adjacency_matches_brute_force_on_fixture():
    rng = np.random.default_rng(19)
    # 20-code fixture: two roots, branching chosen to land on 20 leaves
    edges = [("r1", None), ("r2", None)]
    for r, root in enumerate(["r1", "r2"]):
        for m in range(2):
            mid = f"{root}.m{m}"
            edges.append((mid, root))
            for l in range(5):
                edges.append((f"{mid}.l{l}", mid))
    tree = onto.load_ontology(edges)
    assert tree.n_leaves == 20
    cooc = np.zeros((20, 20))
    for _ in range(30):
        i, j = rng.choice(20, size=2, replace=False)
        cooc[i, j] = cooc[j, i] = 1.0
    adj = gr.build_ontology_adjacency(tree, cooc)
    brute = np.zeros((20, 20))
    for i in range(20):
        for j in range(20):
            if i != j and cooc[i, j]:
                brute[i, j] = lca_level(tree, i, j)
    assert np.array_equal(adj.adjacency.toarray(), brute)
    # with every pair co-occurring, every level must agree with the pairwise oracle
    full = gr.build_ontology_adjacency(tree, sparse.csr_matrix(1.0 - np.eye(20)))
    for i in range(20):
        for j in range(i + 1, 20):
            assert full.adjacency[i, j] == lca_level(tree, i, j)


def test_adjacency_nnz_bound_and_symmetry():
    tree = cousin_tree()
    rng = np.random.default_rng(23)
    n = tree.n_leaves
    cooc = np.zeros((n, n))
    for _ in range(6):
        i, j = rng.choice(n, size=2, replace=False)
        cooc[i, j] = cooc[j, i] = 1.0
    adj = gr.build_ontology_adjacency(tree, cooc)
    dense = adj.adjacency.toarray()
    assert np.array_equal(dense, dense.T)
    assert np.all(np.diagonal(dense) == 0)
    nnz = np.count_nonzero
    linked = sum(lca_level(tree, i, j) > 0 for i in range(n) for j in range(n) if i != j)
    assert nnz(dense) <= min(linked, nnz(cooc))
    assert np.all((dense == 0) | ((dense >= 1) & (dense <= tree.levels - 1)))


def test_adjacency_input_validation():
    tree = cousin_tree()
    n = tree.n_leaves
    bad = np.zeros((n, n))
    bad[0, 1] = 1.0  # asymmetric
    with pytest.raises(ValueError):
        gr.build_ontology_adjacency(tree, bad)
    bad2 = np.zeros((n, n))
    bad2[2, 2] = 1.0
    with pytest.raises(ValueError):
        gr.build_ontology_adjacency(tree, bad2)
    for matrix in (bad, bad2):  # the same checks on sparse input
        with pytest.raises(ValueError):
            gr.build_ontology_adjacency(tree, sparse.csr_matrix(matrix))
    with pytest.raises(ValueError):
        gr.build_ontology_adjacency(tree, np.zeros((n + 1, n + 1)))


def test_rebuild_is_bit_identical():
    rng = np.random.default_rng(5)
    codes = [f"c{i}" for i in range(8)]
    tree = flat_tree(codes)
    records = []
    for u in range(4):
        visits = [list(rng.choice(codes, size=2, replace=False)) for _ in range(3)]
        records.append((f"u{u}", "train", visits))
    ds = make_dataset(records)
    for build in (lambda: gr.build_observation(ds, tree).matrix,
                  lambda: gr.build_cooccurrence(ds, tree, "visit")):
        m1, m2 = build(), build()
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(m1, part), getattr(m2, part))


def test_export_adjacency(tmp_path):
    path = tmp_path / "adj.txt"
    gr.export_adjacency(sparse.csr_matrix(np.array([[0.0, 2.0], [2.0, 0.0]])), path)
    assert path.read_text(encoding="utf-8") == "0 1 2\n1 0 2\n"


def dense_export_adjacency(matrix, path):
    """Reference writer: densify, then write the non-zeros in row-major order."""
    if sparse.issparse(matrix):
        matrix = np.asarray(matrix.todense())
    matrix = np.asarray(matrix)
    with open(path, "w", encoding="utf-8") as fh:
        for i, j in zip(*np.nonzero(matrix)):
            fh.write(f"{i} {j} {matrix[i, j]:g}\n")


def test_export_adjacency_matches_dense_writer(tmp_path):
    rng = np.random.default_rng(29)
    codes = [f"c{i}" for i in range(12)]
    tree = flat_tree(codes)
    records = [(f"u{u}", "train", [list(rng.choice(codes, size=3, replace=False))
                                   for _ in range(3)]) for u in range(6)]
    ds = make_dataset(records)
    cooc = gr.build_cooccurrence(ds, tree, "visit")
    # unsorted indices, an explicit zero, a duplicate entry and values that need %g
    odd = sparse.csr_matrix((np.array([2.5e-7, 0.0, 3.0, 1.25, 1.0]),
                             np.array([3, 1, 0, 2, 2]), np.array([0, 3, 3, 5])), shape=(3, 4))
    for matrix in (gr.build_observation(ds, tree).matrix, cooc,
                   gr.build_ontology_adjacency(tree, cooc).adjacency, odd):
        gr.export_adjacency(matrix, tmp_path / "sparse.txt")
        dense_export_adjacency(matrix, tmp_path / "dense.txt")
        assert (tmp_path / "sparse.txt").read_bytes() == (tmp_path / "dense.txt").read_bytes()
