"""Reference versions of code the package no longer carries.

Each is the package's former construction, kept here as the oracle that its
replacement, or the code built on it, is checked against.
"""

import numpy as np


def lca_level(tree, ci: int, cj: int) -> int:
    """Level of the lowest common ancestor of two distinct leaves.

    Leaves under different roots return 0 (no shared ancestor, hence no
    hierarchy edge). Equal indices are a caller error.
    """
    if ci == cj:
        raise ValueError("lca_level needs two distinct leaves")
    for c in (ci, cj):
        if not 0 <= c < tree.n_leaves:
            raise ValueError(f"leaf index {c} out of range")
    # Single parents make ancestor agreement prefix-closed, so the LCA level
    # is the number of levels where the two ancestors coincide.
    return int(np.count_nonzero(tree.ancestors[ci] == tree.ancestors[cj]))


def leaf_for(index, code: str) -> int:
    """Dense leaf index of one diagnosable code (after padding), as the
    package's ``CodeIndex.leaf_for`` once gave it: ``resolve`` on one code."""
    return index.resolve((code,), None)[0]


def label_vectors(index_lists, width: int) -> np.ndarray:
    """The dense label rows examples once held: per index list, ``np.zeros``
    of ``width`` with ones set at its indices; the rows stacked."""
    rows = []
    for indices in index_lists:
        y = np.zeros(width, dtype=np.float64)
        y[indices] = 1.0
        rows.append(y)
    return np.stack(rows)
