"""Reference assembly of a pinned problem's reduced system.

graph.PinnedProblem.reduced_system builds (A_ff, rhs) in one pass over the
edges.  This is the route it replaced, kept as an independent check: the
full Laplacian of every vertex, then its free rows, sliced into the free
and the pinned columns.
"""

import numpy as np
import scipy.sparse as sp


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
