"""Point-by-point reference for the stacked lattice operators, kept apart from
the package.

This is the assembly the package shipped before ``oracle._lattice_stack``:
a dict from each diagram point of the window to its column, one loop over
those points writing the entries of (a - W) and (b - Z), or of their
adjoints, and a dict numbering the image rows as they first appear.  Tests
compare ``_lattice_stack``, which builds the adjoints alone, against it entry
for entry, and take the forward maps from it; nothing in ``src/`` imports
it.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from stairspec.diagram import NEG_INF, POS_INF, DiagramProfile, m_exact
from stairspec.extnum import RegimeError


def window_points(
    profile: DiagramProfile, window: tuple[int, int, int, int]
) -> tuple[dict[tuple[int, int], int], dict[int, float]]:
    """Column index for each lattice point of the diagram inside the window."""
    i_lo, i_hi, j_lo, j_hi = window
    if i_hi < i_lo or j_hi < j_lo:
        raise RegimeError(f"degenerate window: {window}")
    js = range(j_lo - 1, j_hi + 2)
    row_minima = dict(zip(js, m_exact(profile, js).tolist()))
    cols: dict[tuple[int, int], int] = {}
    for j in range(j_lo, j_hi + 1):
        mj = row_minima[j]
        if mj == POS_INF:
            continue
        start = i_lo if mj == NEG_INF else max(i_lo, int(mj))
        for i in range(start, i_hi + 1):
            cols[(i, j)] = len(cols)
    if not cols:
        raise RegimeError("window does not intersect the diagram")
    return cols, row_minima


def _in_diagram(row_minima: dict[int, float], i: int, j: int) -> bool:
    return row_minima[j] <= i


def lattice_stack(
    profile: DiagramProfile,
    window: tuple[int, int, int, int],
    a: float,
    b: float,
    step: int,
) -> scipy.sparse.csr_matrix:
    """The stacked matrix of (a - W) and (b - Z) (step +1) or their adjoints
    (step -1) on the window, rows numbered by first appearance."""
    cols, row_minima = window_points(profile, window)
    entries: list[tuple[tuple, int, float]] = []
    for (i, j), c in cols.items():
        entries.append((("w", i, j), c, a))
        if step > 0 or _in_diagram(row_minima, i - 1, j):
            entries.append((("w", i + step, j), c, -1.0))
        entries.append((("z", i, j), c, b))
        if step > 0 or _in_diagram(row_minima, i, j - 1):
            entries.append((("z", i, j + step), c, -1.0))
    rows: dict[tuple, int] = {}
    data, row_idx, col_idx = [], [], []
    for row_key, col, value in entries:
        row_idx.append(rows.setdefault(row_key, len(rows)))
        col_idx.append(col)
        data.append(value)
    return scipy.sparse.coo_matrix(
        (data, (row_idx, col_idx)), shape=(len(rows), len(cols))
    ).tocsr()


def stacked_smin(matrix: scipy.sparse.csr_matrix) -> float:
    """The residual ||A v|| / ||v|| at the smallest eigenvector v of the Gram
    matrix: dense up to 500 columns, else shift-invert on the sparse Gram."""
    n_cols = matrix.shape[1]
    gram = matrix.T @ matrix
    if n_cols <= 500:
        v = scipy.linalg.eigh(gram.toarray(), subset_by_index=[0, 0])[1][:, 0]
    else:
        v = scipy.sparse.linalg.eigsh(gram.tocsc(), k=1, sigma=-1e-10, which="LM",
                                      v0=np.ones(n_cols), rng=0)[1][:, 0]
    return float(np.linalg.norm(matrix @ v) / np.linalg.norm(v))
