"""Dense brute-force evaluation of the cell problem, used as test ground truth.

This deliberately shares nothing with the sparse conjugate-gradient path: the
stationarity system is assembled from the ordered pairs of the orbit arrays
(both orientations of every orbit), solved with an explicit pseudo-inverse,
and the energy is then evaluated by literally summing the ordered-pair
interaction terms.
"""

from __future__ import annotations

import numpy as np

from .cell import convention_factor
from .errors import InvalidDirection, TooLarge

SIZE_CAP = 64


def _ordered_pairs(graph):
    """(i, j, offset, w): both orientations of every orbit, in orbit order
    and then reversed; node i is joined to node j of the cell `offset` away
    by weight w, so j's position is dpos[j] + T * offset."""
    return (np.concatenate([graph.u, graph.v]), np.concatenate([graph.v, graph.u]),
            np.concatenate([graph.offset, -graph.offset]), np.concatenate([graph.w, graph.w]))


def brute_force_cell_oracle(graph, z, convention="double"):
    """Minimum cell energy per volume for direction z, by dense linear algebra."""
    n = graph.n_cell
    if n > SIZE_CAP:
        raise TooLarge(f"oracle handles at most {SIZE_CAP} cell nodes, got {n}")
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape != (graph.d,) or not np.all(np.isfinite(z)):
        raise InvalidDirection(f"direction must be a finite vector of length {graph.d}")

    # ordered-pair terms w * (chi_i - chi_j - g_ij)^2 with g_ij = z . (pos_j - pos_i)
    i, j, offset, w = _ordered_pairs(graph)
    g = (graph.dpos[j] + graph.T * offset - graph.dpos[i]) @ z

    # a loop's term w g^2 does not depend on chi: its +w and -w entries
    # would only leave rounding residue in Q, which pinv can amplify
    Q = np.zeros((n, n))
    lin = np.zeros(n)
    keep = i != j
    a, b, c, h = i[keep], j[keep], w[keep], g[keep]
    np.add.at(Q, (a, a), c)
    np.add.at(Q, (b, b), c)
    np.add.at(Q, (a, b), -c)
    np.add.at(Q, (b, a), -c)
    np.add.at(lin, a, -c * h)
    np.add.at(lin, b, c * h)
    chi = -np.linalg.pinv(2.0 * Q) @ (2.0 * lin)

    diff = chi[i] - chi[j] - g
    # the ordered-pair sum is the double-count value
    energy = float(np.sum(w * diff * diff))
    return convention_factor(convention) / 2.0 * energy / graph.T ** graph.d
