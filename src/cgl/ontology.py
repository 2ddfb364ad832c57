"""Disease hierarchy: a K-level tree with virtual-leaf padding and an ancestor table.

Nodes live at levels 1..K (level 1 = roots). Diagnosable codes that sit above
level K are padded with a chain of virtual descendants so that every code in
the data resolves to a level-K leaf. Leaves are indexed densely and
lexicographically by identifier, which keeps indices stable across runs.

A tree is a :class:`CodeIndex` (the leaf order and each code's leaf, all that
scoring needs) plus two maps, ``parent`` and ``level``, and one derived
table, ``ancestors``: row i holds the rank of leaf i's ancestor at each level,
the rank being the node's position in the sorted ``level_nodes`` of its level.
Every ancestor query (the hierarchical embedding, LCA levels, paths) reads it.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "DataError",
    "OntologyError",
    "CodeIndex",
    "OntologyTree",
    "parse_edges",
    "load_ontology",
    "save_ontology",
    "pad_virtual_leaves",
    "ancestor_path",
]

ROOT_MARK = "-"


class DataError(ValueError):
    """Malformed or inconsistent dataset content, such as a code no index knows."""


class OntologyError(ValueError):
    """Structurally invalid hierarchy (cycle, missing parent, duplicate edge)."""


class CodeIndex:
    """``leaf_ids``: the level-K node ids in rank order. ``code_leaf``: every
    diagnosable code id (leaf or padded non-leaf) to its leaf's rank."""

    def __init__(self, leaf_ids: list[str], code_leaf: dict[str, int]):
        self.leaf_ids = leaf_ids
        self.code_leaf = code_leaf
        self.n_leaves = len(leaf_ids)

    @cached_property
    def leaf_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.leaf_ids)}

    def resolve(self, codes, pid: str | None, where: str = "") -> list[int]:
        """The leaf index of each code. An unknown code is a :class:`DataError`
        naming it and patient ``pid``, prefixed with ``where`` (``"line 3: "``)."""
        try:
            return [self.code_leaf[c] for c in codes]
        except KeyError as exc:
            patient = "" if pid is None else f" (patient {pid})"
            raise DataError(f"{where}unknown code {exc.args[0]!r}{patient}") from None


class OntologyTree(CodeIndex):
    """Validated hierarchy with per-level node lists over a code index: ``parent``
    maps every node id to its parent id (``None`` for a root) and ``level`` to
    its level. The leaves are the level-K nodes, and ``padded`` maps each
    diagnosable code above level K to its virtual leaf's id."""

    def __init__(self, parent: dict[str, str | None], level: dict[str, int],
                 padded: dict[str, str] | None = None):
        self.parent = parent
        self.level = level
        self.levels = max(level.values(), default=0)
        by_level: dict[int, list[str]] = {}
        for name, lvl in level.items():
            by_level.setdefault(lvl, []).append(name)
        self.level_nodes = {k: sorted(v) for k, v in by_level.items()}
        self.level_sizes = {k: len(v) for k, v in self.level_nodes.items()}
        leaves = self.level_nodes.get(self.levels, [])
        rank = {name: i for i, name in enumerate(leaves)}
        super().__init__(leaves, rank | {code: rank[leaf] for code, leaf in (padded or {}).items()})

    @cached_property
    def ancestors(self) -> np.ndarray:
        """(n_leaves, K) table: column k holds each leaf's level-(k+1) ancestor rank.

        Built bottom-up: the parent ranks of each level are indexed by the
        ranks already found one level below.
        """
        table = np.empty((self.n_leaves, self.levels), dtype=np.intp)
        if not self.levels:
            return table
        ranks = np.arange(self.n_leaves, dtype=np.intp)
        table[:, -1] = ranks
        for k in range(self.levels, 1, -1):
            above = {name: i for i, name in enumerate(self.level_nodes[k - 1])}
            nodes = self.level_nodes[k]
            parent_rank = np.fromiter((above[self.parent[name]] for name in nodes),
                                      dtype=np.intp, count=len(nodes))
            ranks = parent_rank[ranks]
            table[:, k - 2] = ranks
        return table


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

    # Walk up from each node to a root or a node already placed; 0 marks a
    # node on the current walk, so meeting one again is a cycle.
    level: dict[str, int] = {}
    for start in parent_of:
        walk = []
        cur = start
        while cur is not None and cur not in level:
            level[cur] = 0
            walk.append(cur)
            cur = parent_of[cur]
        if cur is not None and level[cur] == 0:
            raise OntologyError(f"cycle through node {cur!r}")
        base = 0 if cur is None else level[cur]
        for depth, name in enumerate(reversed(walk), start=base + 1):
            level[name] = depth
    return OntologyTree(parent_of, level)


def save_ontology(tree: OntologyTree, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name in sorted(tree.parent):
            parent = tree.parent[name]
            fh.write(f"{name}\t{parent if parent is not None else ROOT_MARK}\n")


def pad_virtual_leaves(tree: OntologyTree, diagnosed) -> OntologyTree:
    """Return a new tree where every diagnosed code resolves to level K.

    A diagnosed node at level k < K gains a chain of virtual descendants at
    levels k+1..K; the level-K virtual node stands for the code's direct
    diagnoses. Nodes nobody diagnoses are left alone. Virtual identifiers are
    the origin id suffixed with the level, e.g. ``401_v4``.
    """
    missing = sorted(c for c in diagnosed if c not in tree.parent)
    if missing:
        raise OntologyError(f"diagnosed codes not in the hierarchy: {missing[:5]}")
    k_max = tree.levels
    parent, level = dict(tree.parent), dict(tree.level)
    code_leaf_name: dict[str, str] = {}
    for code in sorted(diagnosed):
        above = code
        for k in range(tree.level[code] + 1, k_max + 1):
            name = f"{code}_v{k}"
            if name in tree.parent:
                raise OntologyError(f"virtual id {name!r} collides with a real node")
            parent[name], level[name] = above, k
            above = name
        code_leaf_name[code] = above

    return OntologyTree(parent, level, code_leaf_name)


def ancestor_path(tree: OntologyTree, code_index: int) -> tuple[str, ...]:
    """Ancestor identifiers for levels 1..K of the leaf at ``code_index``."""
    if not 0 <= code_index < tree.n_leaves:
        raise ValueError(f"leaf index {code_index} out of range")
    ranks = tree.ancestors[code_index].tolist()
    return tuple(tree.level_nodes[k][rank] for k, rank in enumerate(ranks, start=1))
