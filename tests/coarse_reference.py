"""Reference coarse-graining of a lattice function, one cell at a time.

coarse.LatticeFunction groups its vertices by cell as arrays, and the means
of all full cells are one gather.  This is the route it replaced, kept as an
independent check: a dict from each cell to the list of its vertices, and
Python loops over the cells for the full cells, the means, the L2 error and
the interior cells of the hypothesis norms.
"""

import math

import numpy as np

from lattice_homog import CellOutOfWindow
from lattice_homog.graph import CellBox, edge_energy


def cell_map(u):
    """{cell tuple: [vertex, ...]}, cells in ascending order, the vertices of
    a cell in their given order (one stable sort by cell)."""
    cells = u.positions // u.graph.T
    order = np.lexsort(cells.T[::-1])
    sorted_cells = cells[order]
    first = np.ones(len(sorted_cells), dtype=bool)
    first[1:] = np.any(sorted_cells[1:] != sorted_cells[:-1], axis=1)
    starts, members = np.flatnonzero(first).tolist(), order.tolist()
    return {tuple(c): members[a:b] for c, a, b in
            zip(sorted_cells[first].tolist(), starts, starts[1:] + [len(members)])}


def full_cells(u, groups=None):
    n = u.graph.n_cell
    return sorted(c for c, idx in (groups or cell_map(u)).items() if len(idx) == n)


def coarse_mean(u, cell, groups=None):
    """The mean over one cell; `groups` is cell_map(u), built when not given."""
    try:
        idx = (groups or cell_map(u))[tuple(cell)]
    except KeyError:
        raise CellOutOfWindow(f"cell {tuple(cell)} not sampled") from None
    if len(idx) != u.graph.n_cell:
        raise CellOutOfWindow(f"cell {tuple(cell)} only partially sampled")
    return float(np.sum(u.values[idx]) / u.graph.n_cell)


def coarse_field(u, domain):
    """The {cell: mean} dict of coarse.coarse_field."""
    T = u.graph.T
    eps = u.scale
    means, groups = {}, cell_map(u)
    for cell in full_cells(u, groups):
        lo = [eps * c * T for c in cell]
        hi = [eps * (c + 1) * T for c in cell]
        if all(l > a and h <= b for (a, b), l, h in zip(domain, lo, hi)):
            means[cell] = coarse_mean(u, cell, groups)
    return means


def l2_error_against(u, omega, minimizer):
    g = u.graph
    eps = float(u.scale)
    vol = (eps * g.T) ** g.d
    means = coarse_field(u, [(float(a), float(b)) for a, b in omega])
    total = 0.0
    for cell, mean in means.items():
        center = [eps * (c * g.T + g.T / 2.0) for c in cell]
        diff = mean - minimizer(center)
        total += vol * diff * diff
    return math.sqrt(total)


def hypothesis_norms(u, domain):
    """coarse.hypothesis_norms with its full cells from the sorted list of
    tuples: the interior cells, then the edge counts by summed-area tables."""
    g = u.graph
    eps = float(u.scale)
    d, T = g.d, g.T
    M = T
    l2 = eps ** d * float(u.values @ u.values)

    layer = 2.0 * eps * math.sqrt(d) * T
    full = np.array(full_cells(u), dtype=int).reshape(-1, d)
    anchor = eps * full * T
    lo_dom, hi_dom = np.array(domain, dtype=float).reshape(d, 2).T
    interior = full[np.minimum(anchor - lo_dom, hi_dom - anchor).min(axis=1) > layer]
    if not len(interior):
        return l2, 0.0

    cells = u.positions // T
    box = CellBox(g, cells.min(axis=0), cells.max(axis=0) + 1)
    ends, _ = box.edges_among(box.index(cells, u.node_ids))
    ea, eb = u.positions[ends[:, 0]], u.positions[ends[:, 1]]
    c_hi = (np.minimum(ea, eb) + M - 1) // T
    c_lo = -((M - 2 - np.maximum(ea, eb)) // T) - 1

    base = interior.min(axis=0)
    grid = np.zeros(tuple(interior.max(axis=0) - base + 2), dtype=bool)
    grid[tuple((interior - base).T)] = True
    count = np.zeros(len(ends), dtype=np.int64)
    for m in range(d):
        step = np.eye(d, dtype=int)[m]
        pairs = grid & np.roll(grid, -1, axis=m)
        table = np.pad(pairs.astype(np.int64), [(1, 0)] * d)
        for m2 in range(d):
            table = table.cumsum(axis=m2)
        lo = np.clip(c_lo - step - base, 0, pairs.shape)
        hi = np.maximum(np.clip(c_hi - base + 1, 0, pairs.shape), lo)
        for corner in np.ndindex(*(2,) * d):
            pick = np.where(np.array(corner, dtype=bool), hi, lo)
            count += (-1) ** (d - sum(corner)) * table[tuple(pick.T)]
    return l2, edge_energy(ends, 2.0 * count, u.values) * eps ** (d - 2)
