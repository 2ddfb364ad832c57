import json

import numpy as np
import pytest

from cgl import checkpoint, data
from cgl import ontology as onto
from oracles import lca_level, leaf_for
from problem_fixtures import TINY_EDGES, build_problem, tiny_dataset


def chain_edges(names):
    return [(names[0], None)] + [(c, p) for p, c in zip(names, names[1:])]


def walk_ancestor_ids(tree, leaf_id):
    """Oracle: ancestor identifiers for levels 1..K by walking the parent map."""
    chain = [leaf_id]
    while tree.parent[chain[-1]] is not None:
        chain.append(tree.parent[chain[-1]])
    return tuple(reversed(chain))


def walk_ancestor_ranks(tree):
    """Oracle for ``tree.ancestors``: one parent walk per leaf, ranked per level."""
    rank = {name: i for nodes in tree.level_nodes.values() for i, name in enumerate(nodes)}
    table = np.empty((tree.n_leaves, tree.levels), dtype=np.intp)
    for i, leaf_id in enumerate(tree.leaf_ids):
        table[i] = [rank[name] for name in walk_ancestor_ids(tree, leaf_id)]
    return table


def brute_lca_level(tree, i, j):
    """Oracle: intersect ancestor sets, take the deepest shared level."""
    pa = set(enumerate(walk_ancestor_ids(tree, tree.leaf_ids[i]), start=1))
    pb = set(enumerate(walk_ancestor_ids(tree, tree.leaf_ids[j]), start=1))
    shared = pa & pb
    return max((lvl for lvl, _ in shared), default=0)


def random_tree(rng, levels=5, roots=2, max_children=3):
    edges = []
    frontier = []
    for r in range(roots):
        name = f"r{r}"
        edges.append((name, None))
        frontier.append(name)
    for _ in range(levels - 1):
        nxt = []
        for parent in frontier:
            for i in range(int(rng.integers(1, max_children + 1))):
                name = f"{parent}.{i}"
                edges.append((name, parent))
                nxt.append(name)
        frontier = nxt
    return onto.load_ontology(edges)


def test_single_root_two_children():
    tree = onto.load_ontology([("r", None), ("a", "r"), ("b", "r")])
    assert tree.levels == 2
    assert tree.level_sizes == {1: 1, 2: 2}
    assert tree.leaf_index == {"a": 0, "b": 1}


def test_chain():
    tree = onto.load_ontology(chain_edges(["a", "b", "c"]))
    assert tree.levels == 3
    assert tree.level_sizes == {1: 1, 2: 1, 3: 1}


def test_five_level_branching_four():
    # count by construction: one root, 4 children per node, leaves = 4^4
    edges = [("n", None)]
    frontier = ["n"]
    for _ in range(4):
        nxt = []
        for parent in frontier:
            for i in range(4):
                name = f"{parent}{i}"
                edges.append((name, parent))
                nxt.append(name)
        frontier = nxt
    tree = onto.load_ontology(edges)
    assert tree.levels == 5
    assert tree.level_sizes[5] == 256


def test_structural_errors():
    with pytest.raises(onto.OntologyError):
        onto.load_ontology([("a", "b"), ("b", "a")])  # cycle
    with pytest.raises(onto.OntologyError):
        onto.load_ontology([("r", None), ("a", "r"), ("a", "r")])  # two parents
    with pytest.raises(onto.OntologyError):
        onto.load_ontology([("a", "ghost")])


@pytest.mark.parametrize("edges,message", [
    ([("a", "b"), ("b", "a")], "cycle through node 'a'"),
    ([("r", None), ("x", "r"), ("a", "y"), ("y", "z"), ("z", "y")], "cycle through node 'y'"),
    ([("r", None), ("a", "r"), ("a", "r")], "node 'a' has two parents"),
    ([("r", None), ("a", "ghost")], "node 'a' references unknown parent 'ghost'"),
])
def test_structural_error_messages(edges, message):
    with pytest.raises(onto.OntologyError) as err:
        onto.load_ontology(edges)
    assert str(err.value) == message


def test_deep_chain_listed_leaf_first_loads():
    names = [f"n{k}" for k in range(3000)]
    tree = onto.load_ontology(list(reversed(chain_edges(names))))
    assert tree.levels == 3000
    assert tree.leaf_ids == ["n2999"]
    assert np.array_equal(tree.ancestors, np.zeros((1, 3000), dtype=np.intp))


def test_parse_edges_file_format(tmp_path):
    path = tmp_path / "onto.tsv"
    path.write_text("# comment\nr\t-\n\na\tr\n", encoding="utf-8")
    tree = onto.load_ontology(path)
    assert tree.levels == 2 and "a" in tree.leaf_index
    with pytest.raises(onto.OntologyError, match="line"):
        onto.parse_edges(["no-tab-here"])


def test_pad_internal_code_chain_length():
    tree = onto.load_ontology(chain_edges(["l1", "l2", "l3", "l4", "l5"]))
    padded = onto.pad_virtual_leaves(tree, {"l3"})
    virtuals = set(padded.parent) - set(tree.parent)
    assert sorted(virtuals) == ["l3_v4", "l3_v5"]
    assert padded.parent["l3_v4"] == "l3"
    assert padded.parent["l3_v5"] == "l3_v4"
    assert padded.level["l3_v4"] == 4 and padded.level["l3_v5"] == 5
    assert padded.leaf_ids[padded.code_leaf["l3"]] == "l3_v5"


def test_pad_leaf_is_identity():
    tree = onto.load_ontology([("r", None), ("a", "r"), ("b", "r")])
    padded = onto.pad_virtual_leaves(tree, {"a"})
    assert padded.level_sizes == tree.level_sizes
    assert padded.code_leaf["a"] == padded.leaf_index["a"]


def test_pad_counts_sum_of_depths():
    # diagnosed internal nodes at levels 2, 3, 4 in a 5-level chain tree:
    # virtual chains of lengths 3 + 2 + 1 = 6
    tree = onto.load_ontology(chain_edges(["l1", "l2", "l3", "l4", "l5"]))
    padded = onto.pad_virtual_leaves(tree, {"l2", "l3", "l4"})
    virtuals = set(padded.parent) - set(tree.parent)
    assert len(virtuals) == 6
    assert padded.level_sizes[5] == 1 + 3  # real leaf plus one virtual leaf per code


def test_pad_virtual_id_collision_rejected():
    tree = onto.load_ontology(chain_edges(["l1", "l2", "l3"]) + [("l1_v2", "l1")])
    with pytest.raises(onto.OntologyError, match="'l1_v2' collides with a real node"):
        onto.pad_virtual_leaves(tree, {"l1"})


def test_pad_unknown_code_rejected():
    tree = onto.load_ontology([("r", None), ("a", "r")])
    with pytest.raises(onto.OntologyError):
        onto.pad_virtual_leaves(tree, {"zz"})


def test_leaf_index_lexicographic_bijection():
    rng = np.random.default_rng(1)
    tree = random_tree(rng)
    assert tree.leaf_ids == sorted(tree.leaf_ids)
    assert sorted(tree.leaf_index.values()) == list(range(tree.n_leaves))


def test_lca_siblings_under_level4_parent():
    edges = chain_edges(["l1", "l2", "l3", "l4"]) + [("x", "l4"), ("y", "l4")]
    tree = onto.load_ontology(edges)
    assert lca_level(tree, tree.leaf_index["x"], tree.leaf_index["y"]) == 4


def test_lca_different_roots_is_zero():
    tree = onto.load_ontology([("r1", None), ("r2", None), ("a", "r1"), ("b", "r2")])
    assert lca_level(tree, tree.leaf_index["a"], tree.leaf_index["b"]) == 0


def test_lca_diagonal_rejected():
    tree = onto.load_ontology([("r", None), ("a", "r"), ("b", "r")])
    with pytest.raises(ValueError):
        lca_level(tree, 0, 0)


def test_lca_matches_brute_force_all_pairs():
    tree = random_tree(np.random.default_rng(7))
    n = tree.n_leaves
    for i in range(n):
        for j in range(i + 1, n):
            got = lca_level(tree, i, j)
            assert got == brute_lca_level(tree, i, j)
            assert got == lca_level(tree, j, i)  # symmetry
            assert got < tree.levels


def test_ancestor_path_chain_and_siblings():
    tree = onto.load_ontology(chain_edges(["a", "b", "c"]))
    assert onto.ancestor_path(tree, 0) == ("a", "b", "c")
    tree2 = onto.load_ontology([("r", None), ("m", "r"), ("x", "m"), ("y", "m")])
    px = onto.ancestor_path(tree2, tree2.leaf_index["x"])
    py = onto.ancestor_path(tree2, tree2.leaf_index["y"])
    assert px[:-1] == py[:-1]
    assert px[-1] != py[-1]


def test_ancestor_path_of_virtual_leaf():
    tree = onto.load_ontology(chain_edges(["l1", "l2", "l3", "l4"]))
    padded = onto.pad_virtual_leaves(tree, {"l2"})
    path = onto.ancestor_path(padded, padded.code_leaf["l2"])
    assert path == ("l1", "l2", "l2_v3", "l2_v4")


def test_every_visit_code_resolves_after_padding():
    tree = onto.load_ontology(chain_edges(["l1", "l2", "l3"]) + [("z", "l2")])
    diagnosed = {"l2", "l3", "z"}
    padded = onto.pad_virtual_leaves(tree, diagnosed)
    seen = {padded.code_leaf[c] for c in diagnosed}
    assert len(seen) == len(diagnosed)
    for idx in seen:
        assert 0 <= idx < padded.n_leaves


@pytest.mark.parametrize("seed", range(6))
def test_ancestors_match_parent_walk_on_random_trees(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, levels=int(rng.integers(1, 6)), roots=int(rng.integers(1, 4)))
    assert np.array_equal(tree.ancestors, walk_ancestor_ranks(tree))


def test_ancestors_match_parent_walk_on_padded_chains():
    tree = onto.load_ontology(chain_edges(["l1", "l2", "l3", "l4", "l5"]) + [("z", "l2")])
    padded = onto.pad_virtual_leaves(tree, {"l1", "l2", "l4", "l5", "z"})
    assert padded.n_leaves == 5
    assert np.array_equal(padded.ancestors, walk_ancestor_ranks(padded))


@pytest.mark.parametrize("task", ["diagnosis", "heart_failure"])
def test_ancestors_match_parent_walk_on_problem_fixtures(task):
    tree = build_problem(task=task).tree
    assert np.array_equal(tree.ancestors, walk_ancestor_ranks(tree))
    base = onto.load_ontology(TINY_EDGES)
    assert np.array_equal(base.ancestors, walk_ancestor_ranks(base))


def test_ancestors_skip_a_childless_node_above_level_k():
    # "m" and "r2" have no children: they are ranked on their levels but are
    # nobody's ancestor, so the leaves' ranks must step over them
    edges = [("r1", None), ("r2", None), ("a", "r1"), ("m", "r1"), ("b", "r1"),
             ("x", "a"), ("y", "b"), ("w", "b")]
    tree = onto.load_ontology(edges)
    assert tree.levels == 3 and tree.leaf_ids == ["w", "x", "y"]
    assert np.array_equal(tree.ancestors, walk_ancestor_ranks(tree))
    assert tree.ancestors.tolist() == [[0, 1, 0], [0, 0, 1], [0, 1, 2]]


def manifest_index(tree):
    """The code index a checkpoint load reads back for ``tree``: its edges and
    code map as a checkpoint manifest stores them, through JSON."""
    stored = json.loads(json.dumps({
        "ontology_edges": [[name, tree.parent[name]] for name in sorted(tree.parent)],
        "code_map": dict(tree.code_leaf)}))
    return checkpoint._code_index(stored["ontology_edges"], stored["code_map"])


def assert_same_index(index, tree):
    assert type(index) is onto.CodeIndex
    assert index.leaf_ids == tree.leaf_ids
    assert index.code_leaf == tree.code_leaf
    assert index.leaf_index == tree.leaf_index and index.n_leaves == tree.n_leaves


@pytest.mark.parametrize("seed", range(6))
def test_manifest_index_matches_tree_on_random_padded_trees(seed):
    rng = np.random.default_rng(seed)
    base = random_tree(rng, levels=int(rng.integers(3, 6)), roots=int(rng.integers(1, 4)))
    # childless nodes above level K, under random inner nodes: they are no
    # edge's parent yet no leaf, and only diagnosed ones are padded to level K
    edges = [(name, base.parent[name]) for name in base.parent]
    inner = [name for name in base.parent if base.level[name] < base.levels - 1]
    childless = [f"{name}.x" for name in rng.permutation(inner)[:base.levels]]
    edges += [(name, name.removesuffix(".x")) for name in childless]
    tree = onto.load_ontology(edges)
    nodes = sorted(tree.parent)
    diagnosed = {nodes[i] for i in rng.choice(len(nodes), size=len(nodes) // 3, replace=False)}
    diagnosed.add(childless[0])
    padded = onto.pad_virtual_leaves(tree, diagnosed)
    assert any(name not in padded.code_leaf for name in childless[1:])
    assert_same_index(manifest_index(padded), padded)


def test_manifest_index_matches_tree_on_padded_chains():
    tree = onto.load_ontology(chain_edges(["l1", "l2", "l3", "l4", "l5"]) + [("z", "l2")])
    padded = onto.pad_virtual_leaves(tree, {"l1", "l2", "l4", "l5", "z"})
    assert_same_index(manifest_index(padded), padded)


@pytest.mark.parametrize("internal", [False, True], ids=["leaves", "internal-codes"])
def test_manifest_index_matches_tree_on_problem_fixtures(internal):
    dataset = tiny_dataset()
    if internal:  # diagnose a level-2 and a root code, which padding extends
        dataset.patients[0].visits[0].codes.append("d0.a")
        dataset.patients[2].visits[1].codes.append("d1")
    tree = build_problem(dataset=dataset).tree
    assert ("d0.a" in tree.code_leaf) == internal
    assert_same_index(manifest_index(tree), tree)


def test_code_index_resolver():
    index = onto.CodeIndex(["a", "b"], {"a": 0, "b": 1, "up": 1})
    assert index.resolve(["b", "up", "a"], "p1") == [1, 1, 0]
    assert leaf_for(index, "up") == 1
    with pytest.raises(data.DataError, match=r"^line 4: unknown code 'zz' \(patient p1\)$"):
        index.resolve(["a", "zz"], "p1", "line 4: ")
