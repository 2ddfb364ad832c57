"""Patient-code observation graph and co-occurrence-masked hierarchy adjacency.

Both graphs are built from training-split patients only, and only from
feature visits (every visit except the last, which supplies labels). That
keeps label information out of the graph structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .ontology import OntologyTree, ancestor_ranks

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

    matrix: np.ndarray  # (n_patients, n_codes), entries in {0, 1}
    patient_index: dict[str, int]

    @property
    def n_patients(self) -> int:
        return self.matrix.shape[0]


@dataclass
class OntologyAdjacency:
    """LCA-level matrix, co-occurrence mask, and their elementwise product.

    ``adjacency`` keeps only code pairs that both share an ancestor and
    co-occur in the data; entries are the LCA level in [1, K-1].
    """

    lca_levels: np.ndarray  # (n_codes, n_codes) int, zero diagonal
    cooccurrence: np.ndarray  # (n_codes, n_codes) binary, zero diagonal
    adjacency: sparse.csr_matrix  # lca_levels * cooccurrence

    def dense_adjacency(self) -> np.ndarray:
        return np.asarray(self.adjacency.todense(), dtype=np.float64)


def _feature_visit_codes(patient, tree: OntologyTree):
    for visit in patient.visits[:-1]:
        idx = []
        for code in visit.codes:
            try:
                idx.append(tree.leaf_for(code))
            except KeyError:
                raise ValueError(
                    f"code {code!r} (patient {patient.pid}) is missing from the leaf index"
                ) from None
        yield idx


def build_observation(dataset, tree: OntologyTree) -> ObservationGraph:
    """1 at (u, i) iff training patient u carries code i in a feature visit."""
    patients = dataset.split_patients("train")
    matrix = np.zeros((len(patients), tree.n_leaves), dtype=np.float64)
    index = {}
    for row, patient in enumerate(patients):
        index[patient.pid] = row
        for codes in _feature_visit_codes(patient, tree):
            matrix[row, codes] = 1.0
    return ObservationGraph(matrix, index)


def build_cooccurrence(dataset, tree: OntologyTree, scope: str = "visit") -> np.ndarray:
    """Symmetric binary co-occurrence over training feature visits.

    ``scope="visit"`` pairs codes inside a single visit; ``scope="patient"``
    pairs codes across a patient's whole feature history.
    """
    if scope not in ("visit", "patient"):
        raise ValueError(f"unknown co-occurrence scope {scope!r}")
    n = tree.n_leaves
    mat = np.zeros((n, n), dtype=np.float64)
    for patient in dataset.split_patients("train"):
        if scope == "patient":
            groups = [sorted({i for codes in _feature_visit_codes(patient, tree) for i in codes})]
        else:
            groups = [sorted(set(codes)) for codes in _feature_visit_codes(patient, tree)]
        for group in groups:
            if len(group) < 2:
                continue
            ix = np.asarray(group)
            mat[np.ix_(ix, ix)] = 1.0
    np.fill_diagonal(mat, 0.0)
    return mat


def build_ontology_adjacency(tree: OntologyTree, cooccurrence: np.ndarray) -> OntologyAdjacency:
    """LCA levels for all leaf pairs, masked by observed co-occurrence."""
    n = tree.n_leaves
    if cooccurrence.shape != (n, n):
        raise ValueError(f"co-occurrence shape {cooccurrence.shape} does not match {n} codes")
    if not np.array_equal(cooccurrence, cooccurrence.T):
        raise ValueError("co-occurrence matrix must be symmetric")
    if np.any(np.diagonal(cooccurrence) != 0):
        raise ValueError("co-occurrence matrix must have a zero diagonal")

    # Ancestor agreement is prefix-closed (single parents), so the LCA level
    # is the count of levels 1..K-1 where the ancestors coincide.
    paths = ancestor_ranks(tree)
    lca = np.zeros((n, n), dtype=np.int64)
    for k in range(tree.levels - 1):
        lca += paths[:, k][:, None] == paths[None, :, k]
    np.fill_diagonal(lca, 0)

    masked = lca * (cooccurrence != 0)
    return OntologyAdjacency(lca, cooccurrence, sparse.csr_matrix(masked.astype(np.float64)))


def export_adjacency(matrix, path) -> None:
    """Write non-zero entries as ``i j value`` lines (row-major order)."""
    if sparse.issparse(matrix):
        matrix = np.asarray(matrix.todense())
    matrix = np.asarray(matrix)
    with open(path, "w", encoding="utf-8") as fh:
        for i, j in zip(*np.nonzero(matrix)):
            fh.write(f"{i} {j} {matrix[i, j]:g}\n")
