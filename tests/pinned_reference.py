"""Reference routes of a pinned problem's reduced system and its solves.

graph.PinnedProblem.reduced_system builds (A_ff, rhs) in one pass over the
edges.  `reduced_system` is the route it replaced, kept as an independent
check: the full Laplacian of every vertex, then its free rows, sliced into
the free and the pinned columns.  `superlu_solve` is the sparse direct
solve that pinned systems took before the band, and `band_solve` the band
route as it copied the lower band from the CSR of A_ff, which the band
filled from the pairs (solve._Band) reproduces bit for bit.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def laplacian(n, ends, coef):
    """Sparse L (n x n) with x^T L x = sum_e coef[e] (x[a_e] - x[b_e])^2;
    loops and zero coefficients leave no entry."""
    a, b = np.asarray(ends).reshape(-1, 2).T
    c = np.asarray(coef, dtype=float)
    keep = (a != b) & (c != 0)
    a, b, c = a[keep], b[keep], c[keep]
    return sp.csr_matrix((np.concatenate([c, c, -c, -c]),
                          (np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a]))),
                         shape=(n, n))


def reduction(L, pinned, values):
    """(A_ff, rhs) of minimizing x^T L x with x = values on the pinned vertices."""
    rows = L[~pinned]
    return rows[:, ~pinned], -(rows[:, pinned] @ values[pinned])


def reduced_system(problem):
    """(A_ff, rhs) of a graph.PinnedProblem by the reference route."""
    L = laplacian(len(problem.pinned), problem.ends, problem.coef)
    return reduction(L, problem.pinned, problem.values)


def superlu_solve(A, rhs):
    """x with A x = rhs by SuperLU, its columns ordered by minimum degree on
    the pattern of A + A^T."""
    return spla.spsolve(A, rhs, permc_spec="MMD_AT_PLUS_A")


def band_solve(A, rhs, positions):
    """x with A x = rhs for a canonical CSR A, by banded Cholesky with the
    free vertices ordered by their d-positions `positions`, the longest
    side of their box slowest (stable sort), the lower band copied from A's
    stored entries."""
    columns = [column - column.min() for column in positions.T]
    shape = [int(column.max()) + 1 for column in columns]
    axes = np.roll(np.arange(len(shape)), -int(np.argmax(shape)))
    key = np.ravel_multi_index([columns[m] for m in axes], [shape[m] for m in axes])
    n = len(rhs)
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    cols, b, rank = A.indices, rhs, None
    if np.any(key[1:] < key[:-1]):
        order = np.argsort(key, kind="stable")
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        rows, cols, b = rank[rows], rank[cols], rhs[order]
    lower = np.flatnonzero(rows >= cols)
    c = cols[lower]
    offset = rows[lower] - c
    ab = np.zeros((int(offset.max()) + 1, n), order="F")
    ab[offset, c] = A.data[lower]
    y = sla.solveh_banded(ab, b, overwrite_ab=True, lower=True, check_finite=False)
    return y if rank is None else y[rank]
