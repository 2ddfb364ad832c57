"""Patient-code observation graph and co-occurrence-masked hierarchy adjacency.

Both graphs are built from training-split patients only, and only from
feature visits (every visit except the last, which supplies labels). That
keeps label information out of the graph structure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .ontology import CodeIndex, OntologyTree

__all__ = [
    "ObservationGraph",
    "OntologyAdjacency",
    "build_observation",
    "build_cooccurrence",
    "build_ontology_adjacency",
    "export_adjacency",
]


@dataclass
class ObservationGraph:
    """Binary patient-by-code adjacency over training patients."""

    matrix: sparse.csr_matrix  # (n_patients, n_codes), stored entries are 1
    patient_index: dict[str, int]

    @property
    def n_patients(self) -> int:
        return self.matrix.shape[0]


@dataclass
class OntologyAdjacency:
    """Hierarchy links between codes that co-occur in the data.

    ``adjacency`` stores one entry per ordered pair of distinct codes that
    both share an ancestor and co-occur; its value is the LCA level in
    [1, K-1]. Indices are sorted within each row.
    """

    adjacency: sparse.csr_matrix


def _incidence(groups, n_codes: int) -> sparse.csr_matrix:
    """Binary (len(groups), n_codes) CSR matrix: row r marks the codes of group r."""
    rows = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    cols = np.fromiter(itertools.chain.from_iterable(groups), dtype=np.intp, count=rows.size)
    x = sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(len(groups), n_codes))
    x.data[:] = 1.0  # a code listed twice in a group was summed
    return x


def build_observation(dataset, tree: CodeIndex) -> ObservationGraph:
    """1 at (u, i) iff training patient u carries code i in a feature visit."""
    patients = dataset.split_patients("train")
    groups = [[i for v in p.feature_visits for i in tree.resolve(v.codes, p.pid)] for p in patients]
    index = {p.pid: row for row, p in enumerate(patients)}
    return ObservationGraph(_incidence(groups, tree.n_leaves), index)


def build_cooccurrence(dataset, tree: CodeIndex, scope: str = "visit") -> sparse.csr_matrix:
    """Symmetric binary co-occurrence over training feature visits, as CSR.

    The binarised X^T X of the visit (or patient) incidence X with its
    diagonal removed. ``scope="visit"`` pairs codes inside a single visit;
    ``scope="patient"`` pairs codes across a patient's whole feature history.
    """
    if scope not in ("visit", "patient"):
        raise ValueError(f"unknown co-occurrence scope {scope!r}")
    groups = []
    for patient in dataset.split_patients("train"):
        visits = [tree.resolve(v.codes, patient.pid) for v in patient.feature_visits]
        groups.extend([[i for codes in visits for i in codes]] if scope == "patient" else visits)
    x = _incidence(groups, tree.n_leaves)
    pairs = (x.T @ x).tocoo()
    off = pairs.row != pairs.col
    return sparse.csr_matrix((np.ones(np.count_nonzero(off)), (pairs.row[off], pairs.col[off])),
                             shape=(tree.n_leaves, tree.n_leaves))


def build_ontology_adjacency(tree: OntologyTree, cooccurrence) -> OntologyAdjacency:
    """LCA levels of the co-occurring leaf pairs (a sparse or dense matrix)."""
    n = tree.n_leaves
    cooc = sparse.csr_matrix(cooccurrence, dtype=np.float64, copy=True)
    if cooc.shape != (n, n):
        raise ValueError(f"co-occurrence shape {cooc.shape} does not match {n} codes")
    if (cooc != cooc.T).nnz:
        raise ValueError("co-occurrence matrix must be symmetric")
    if np.any(cooc.diagonal() != 0):
        raise ValueError("co-occurrence matrix must have a zero diagonal")
    cooc.sum_duplicates()
    cooc.eliminate_zeros()

    # Ancestor agreement is prefix-closed (single parents), so the LCA level
    # is the count of levels 1..K-1 where the ancestors coincide.
    pairs = cooc.tocoo()
    rows, cols = pairs.row, pairs.col
    paths = tree.ancestors[:, :-1]
    levels = (paths[rows] == paths[cols]).sum(axis=1)
    keep = levels > 0
    linked = sparse.csr_matrix((levels[keep].astype(np.float64), (rows[keep], cols[keep])),
                               shape=(n, n))
    return OntologyAdjacency(linked)


def export_adjacency(matrix, path) -> None:
    """Write stored non-zero entries as ``i j value`` lines (row-major order)."""
    matrix = sparse.csr_matrix(matrix, copy=True)
    matrix.sum_duplicates()
    entries = matrix.tocoo()
    with open(path, "w", encoding="utf-8") as fh:
        for i, j, value in zip(entries.row, entries.col, entries.data):
            if value != 0:
                fh.write(f"{i} {j} {value:g}\n")
