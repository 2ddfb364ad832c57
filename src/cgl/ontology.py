"""Disease hierarchy: a K-level tree with virtual-leaf padding and LCA queries.

Nodes live at levels 1..K (level 1 = roots). Diagnosable codes that sit above
level K are padded with a chain of virtual descendants so that every code in
the data resolves to a level-K leaf. Leaves are indexed densely and
lexicographically by identifier, which keeps indices stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "OntologyError",
    "OntologyTree",
    "parse_edges",
    "load_ontology",
    "save_ontology",
    "pad_virtual_leaves",
    "lca_level",
    "ancestor_path",
    "ancestor_ranks",
]

ROOT_MARK = "-"


class OntologyError(ValueError):
    """Structurally invalid hierarchy (cycle, missing parent, duplicate edge)."""


@dataclass(frozen=True)
class Node:
    level: int
    parent: str | None
    virtual: bool = False


class OntologyTree:
    """Validated hierarchy with per-level counts and a dense leaf index.

    ``leaf_index`` maps every level-K node id to an index in [0, n_leaves);
    ``code_leaf`` maps every diagnosable code id (leaf or padded non-leaf)
    to its leaf index. Immutable after construction.
    """

    def __init__(self, nodes: dict[str, Node]):
        self.nodes = nodes
        self.levels = max((n.level for n in nodes.values()), default=0)
        by_level: dict[int, list[str]] = {}
        for name, node in nodes.items():
            by_level.setdefault(node.level, []).append(name)
        self.level_nodes = {k: sorted(v) for k, v in by_level.items()}
        self.level_sizes = {k: len(v) for k, v in self.level_nodes.items()}
        self.level_rank = {
            name: i for k in self.level_nodes for i, name in enumerate(self.level_nodes[k])
        }
        leaves = self.level_nodes.get(self.levels, [])
        self.leaf_index = {name: i for i, name in enumerate(leaves)}
        self.leaf_ids = leaves
        self.code_leaf: dict[str, int] = dict(self.leaf_index)

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_ids)

    def __contains__(self, name: str) -> bool:
        return name in self.nodes

    def leaf_for(self, code: str) -> int:
        """Dense leaf index of a diagnosable code (after padding)."""
        try:
            return self.code_leaf[code]
        except KeyError:
            raise KeyError(f"code {code!r} does not resolve to a leaf") from None

    def ancestor_ids(self, leaf_id: str) -> tuple[str, ...]:
        """Ancestor identifiers for levels 1..K; the last entry is the leaf."""
        node = self.nodes.get(leaf_id)
        if node is None or node.level != self.levels:
            raise ValueError(f"{leaf_id!r} is not a leaf")
        chain = [leaf_id]
        cur = node
        while cur.parent is not None:
            chain.append(cur.parent)
            cur = self.nodes[cur.parent]
        return tuple(reversed(chain))


def parse_edges(lines) -> list[tuple[str, str | None]]:
    """Parse ``child<TAB>parent`` records; parent '-' marks a root.

    Blank lines and lines starting with '#' are skipped.
    """
    edges = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0]:
            raise OntologyError(f"line {lineno}: expected 'child<TAB>parent', got {raw!r}")
        child, parent = parts[0], parts[1]
        edges.append((child, None if parent == ROOT_MARK else parent))
    return edges


def load_ontology(source) -> OntologyTree:
    """Build a tree from a path, an iterable of lines, or parsed edge tuples.

    Levels are computed from the roots; depth defines K. A node with two
    parents, a cycle, or a reference to a missing parent is rejected.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            edges = parse_edges(fh)
    elif source and isinstance(source[0], str):
        edges = parse_edges(source)
    else:
        edges = list(source)

    parent_of: dict[str, str | None] = {}
    for child, parent in edges:
        if child in parent_of:
            raise OntologyError(f"node {child!r} has two parents")
        parent_of[child] = parent
    for child, parent in parent_of.items():
        if parent is not None and parent not in parent_of:
            raise OntologyError(f"node {child!r} references unknown parent {parent!r}")

    levels: dict[str, int] = {}

    def level_of(name: str, trail: set[str]) -> int:
        if name in levels:
            return levels[name]
        if name in trail:
            raise OntologyError(f"cycle through node {name!r}")
        trail.add(name)
        parent = parent_of[name]
        lvl = 1 if parent is None else level_of(parent, trail) + 1
        trail.discard(name)
        levels[name] = lvl
        return lvl

    for name in parent_of:
        level_of(name, set())

    nodes = {name: Node(levels[name], parent_of[name]) for name in parent_of}
    return OntologyTree(nodes)


def save_ontology(tree: OntologyTree, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name in sorted(tree.nodes):
            parent = tree.nodes[name].parent
            fh.write(f"{name}\t{parent if parent is not None else ROOT_MARK}\n")


def pad_virtual_leaves(tree: OntologyTree, diagnosed) -> OntologyTree:
    """Return a new tree where every diagnosed code resolves to level K.

    A diagnosed node at level k < K gains a chain of virtual descendants at
    levels k+1..K; the level-K virtual node stands for the code's direct
    diagnoses. Nodes nobody diagnoses are left alone. Virtual identifiers are
    the origin id suffixed with the level, e.g. ``401_v4``.
    """
    missing = sorted(c for c in diagnosed if c not in tree.nodes)
    if missing:
        raise OntologyError(f"diagnosed codes not in the hierarchy: {missing[:5]}")
    k_max = tree.levels
    nodes = dict(tree.nodes)
    code_leaf_name: dict[str, str] = {}
    for code in sorted(diagnosed):
        level = tree.nodes[code].level
        if level == k_max:
            code_leaf_name[code] = code
            continue
        parent = code
        for k in range(level + 1, k_max + 1):
            name = f"{code}_v{k}"
            if name in nodes and not nodes[name].virtual:
                raise OntologyError(f"virtual id {name!r} collides with a real node")
            nodes[name] = Node(k, parent, virtual=True)
            parent = name
        code_leaf_name[code] = parent

    padded = OntologyTree(nodes)
    for code, leaf_name in code_leaf_name.items():
        padded.code_leaf[code] = padded.leaf_index[leaf_name]
    return padded


def ancestor_path(tree: OntologyTree, code_index: int) -> tuple[str, ...]:
    """Ancestor identifiers for levels 1..K of the leaf at ``code_index``."""
    if not 0 <= code_index < tree.n_leaves:
        raise ValueError(f"leaf index {code_index} out of range")
    return tree.ancestor_ids(tree.leaf_ids[code_index])


def ancestor_ranks(tree: OntologyTree) -> np.ndarray:
    """(n_leaves, K) table: column k holds each leaf's level-(k+1) ancestor rank."""
    ranks = np.empty((tree.n_leaves, tree.levels), dtype=np.intp)
    for i in range(tree.n_leaves):
        for k, name in enumerate(ancestor_path(tree, i)):
            ranks[i, k] = tree.level_rank[name]
    return ranks


def lca_level(tree: OntologyTree, ci: int, cj: int) -> int:
    """Level of the lowest common ancestor of two distinct leaves.

    Leaves under different roots return 0 (no shared ancestor, hence no
    hierarchy edge). Equal indices are a caller error: the diagonal is
    handled by the adjacency builder.
    """
    if ci == cj:
        raise ValueError("lca_level needs two distinct leaves")
    pa, pb = ancestor_path(tree, ci), ancestor_path(tree, cj)
    level = 0
    for k, (a, b) in enumerate(zip(pa, pb), start=1):
        if a != b:
            break
        level = k
    return level
