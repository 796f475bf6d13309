"""Coarse-graining and the structural inequalities behind compactness.

The coarse field replaces a lattice function by its per-cell arithmetic mean
(one cell = one period column times the full cross-section); the cell of a
vertex is its d-position // T, as node d-coordinates lie in [0, T).  A
LatticeFunction groups its vertices by cell once, as arrays (one stable
sort), and the means of all full cells are one gather of shape
(cells, n_cell) summed over its last axis: each row sums as np.sum of that
cell's values alone would, so a mean is the same to the last bit whether
taken for one cell (coarse_mean) or for all (coarse_field).  Three
inequalities make up the discrete p-connectedness: adjacent cell means and
per-cell deviation from the mean, each controlled by local edge differences
with constants from shortest-path structure, and the domain-scale Poincare
inequality for fields vanishing near the boundary.  On each region of a
local harness the left-hand side is |C^T u|^2 for a matrix C whose columns
sum to zero, so its supremum over all fields is lambda_max(C^T L^+ C) for
the region's Laplacian L: one grounded factorization per region
(graph.grounded_solve: banded Cholesky in position order, or SuperLU for
the largest Poincare-Wirtinger regions) gives the exact worst ratio, and
no random field is drawn.  Boxes come from graph.position_box and
graph.CellBox, paths from graph.box_adjacency, energies are
graph.edge_energy's running sums, the Poincare problem is a
graph.PinnedProblem and the path constants are LatticeGraph.path_constants,
one per graph.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CellOutOfWindow
from .graph import (CellBox, PinnedProblem, box_adjacency, connectedness_certificate,
                    edge_energy, grounded_solve, inside, position_box)


@dataclass
class LatticeFunction:
    """Real values on a finite set of lattice vertices at scale eps.

    The vertices are grouped by cell once, as arrays: one stable sort by cell
    orders them by ascending cell (lexicographic) and, within a cell, as
    given.  Group g is the cell _keys[g], whose _counts[g] vertices are
    _order[_starts[g]:_starts[g] + _counts[g]], in that order.
    """

    graph: object
    positions: np.ndarray       # (N, d) absolute integer d-coordinates
    node_ids: np.ndarray        # (N,) index into graph.nodes
    values: np.ndarray          # (N,)
    scale: float                # eps

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=int)
        self.node_ids = np.asarray(self.node_ids, dtype=int)
        self.values = np.asarray(self.values, dtype=float)
        self.cells = self.positions // self.graph.T
        self._order = np.lexsort(self.cells.T[::-1])
        cells = self.cells[self._order]
        first = np.ones(len(cells), dtype=bool)
        first[1:] = np.any(cells[1:] != cells[:-1], axis=1)
        self._starts = np.flatnonzero(first)
        self._counts = np.diff(self._starts, append=len(cells))
        self._keys = cells[first]

    def cell_indices(self, cell):
        """The vertices of `cell` in member order, as a new array."""
        lo, hi = 0, len(self._keys) if len(cell) == self.graph.d else 0
        # the keys ascend by axis 0, then by axis 1 among equal axis 0, ...
        for column, c in zip(self._keys.T, cell):
            run = column[lo:hi]
            lo, hi = lo + run.searchsorted(c), lo + run.searchsorted(c, "right")
        if hi == lo:
            raise CellOutOfWindow(f"cell {tuple(cell)} not sampled")
        return self._order[self._starts[lo]:self._starts[lo] + self._counts[lo]].copy()

    def _full(self):
        """The fully sampled cells (F, d), ascending, and their groups' starts."""
        full = self._counts == self.graph.n_cell
        return self._keys[full], self._starts[full]

    def full_cells(self):
        return [tuple(c) for c in self._full()[0].tolist()]


def coarse_mean(u, cell):
    """Arithmetic mean of u over one period cell; linear in u."""
    idx = u.cell_indices(cell)
    if len(idx) != u.graph.n_cell:
        raise CellOutOfWindow(f"cell {tuple(cell)} only partially sampled")
    return float(np.sum(u.values[idx]) / u.graph.n_cell)


@dataclass
class CoarseField:
    """Per-cell means of a lattice function, one value per full cell."""

    means: dict                 # cell tuple -> mean
    scale: float
    period: int
    d: int


def coarse_field(u, domain):
    """Means over every full cell whose scaled box lies inside `domain`.

    `domain` is an open box ((a, b), ...); a half-open cell [lo, hi)^d is
    inside when lo > a and hi <= b per axis, so partial boundary cells are
    excluded.  A domain smaller than one cell yields an empty field.
    """
    cells, means = _cell_means(u, domain)
    return CoarseField(dict(zip(map(tuple, cells.tolist()), means.tolist())),
                       u.scale, u.graph.T, u.graph.d)


def _cell_means(u, domain):
    """(cells (F, d), means (F,)) of coarse_field, in ascending cell order."""
    T, eps, n = u.graph.T, u.scale, u.graph.n_cell
    cells, starts = u._full()
    keep = np.ones(len(cells), dtype=bool)
    for (a, b), c in zip(domain, cells.T):
        keep &= (eps * c * T > a) & (eps * (c + 1) * T <= b)
    # one C-ordered (cells, n) gather: each row sums as np.sum of the cell alone
    members = u._order[starts[keep, None] + np.arange(n)]
    return cells[keep], u.values[members].sum(axis=-1) / n


# ---------------------------------------------------------------------------
# path constants


@dataclass
class PathConstants:
    C_two: float
    C_pw: float
    M: int
    max_translation_path: int
    max_pair_path: int
    min_weight: float
    translation_multiplicity: int = 1
    pair_multiplicity: int = 1


def _tree_paths(graph, lo, hi, cell, targets):
    """(longest length, largest edge multiplicity) of the breadth-first tree
    paths inside the d-positions [lo, hi] from node i of cell 0 to the nodes
    targets[i] of `cell`, over the cell nodes i; None when one does not fit.

    In one source's tree a path is as long as its target is deep, and an
    edge is used by the targets below it, counted by pushing the target
    counts up one tree level (a run of the breadth-first order) at a time;
    edges sum their use over the sources.
    """
    import scipy.sparse.csgraph as csgraph
    box, adjacency = box_adjacency(graph, lo, hi)
    size, nodes = len(box.node_ids), np.arange(graph.n_cell)
    sources = box.index(np.zeros((len(nodes), graph.d), dtype=np.intp), nodes)
    ends = box.index(np.broadcast_to(cell, (len(nodes), graph.d)), nodes)[targets]
    longest, keys, counts = 0, [], []
    position = np.empty(size, dtype=np.intp)
    for source, target in zip(sources, ends):
        order, pred = csgraph.breadth_first_order(adjacency, source, directed=True,
                                                  return_predecessors=True)
        if np.any(target < 0) or np.any(pred[target] < 0):
            return None
        position[order] = np.arange(len(order))
        up = position[pred[order[1:]]]      # parent position of each later position
        deepest = position[target].max(initial=0)
        bounds = [0, 1]                     # level l holds positions bounds[l]:bounds[l + 1]
        while bounds[-1] <= deepest:
            bounds.append(1 + int(up.searchsorted(bounds[-1])))
        below = np.bincount(position[target], minlength=bounds[-1]).astype(float)
        for level in range(len(bounds) - 2, 0, -1):
            a, b = bounds[level], bounds[level + 1]
            np.add.at(below, up[a - 1:b - 1], below[a:b])
        longest = max(longest, len(bounds) - 2)
        carrying = np.flatnonzero(below[1:]) + 1
        used = order[carrying]
        keys.append(np.minimum(used, pred[used]) * size + np.maximum(used, pred[used]))
        counts.append(below[carrying])
    _, edge = np.unique(np.concatenate(keys), return_inverse=True)
    return longest, int(np.bincount(edge, weights=np.concatenate(counts)).max(initial=1))


def compute_path_constants(graph):
    """Inequality constants from shortest witness paths.

    M = T (one period of enlargement).  For each unit translation the
    witness family {cell node -> its translate} has a longest length N and a
    largest per-edge multiplicity mu (how many of the witnesses share one
    edge); the chain of estimates bounding a squared mean difference by N
    times the stacked path sums makes N * mu / #cell a valid constant for
    the unweighted local edge energy.  The per-cell constant is built the
    same way from the in-cell pair witnesses, divided by the smallest
    weight.  Every witness is a shortest path inside the M-enlarged box, a
    breadth-first tree path on graph.box_adjacency: d + 1 boxes per M (the
    translations per axis, the pairs), one search per box and source node.
    If a witness does not fit, M grows by T (re-tiling argument) until all
    fit: connectedness_certificate has proven that the witnesses of a
    connected graph exist, so the loop ends, and it raises DisconnectedGraph
    before the loop for any other graph.
    """
    connectedness_certificate(graph)  # raises DisconnectedGraph on failure
    T, d, n_cell = graph.T, graph.d, graph.n_cell
    nodes = np.arange(n_cell)
    others = np.array([np.delete(nodes, i) for i in nodes])
    for M in itertools.count(T, T):
        lo, hi = [-(M - 1)] * d, T - 1 + (M - 1)
        axes = [_tree_paths(graph, lo, hi + T * unit, unit, nodes[:, None])
                for unit in np.eye(d, dtype=np.intp)]
        pw = _tree_paths(graph, lo, [hi] * d, np.zeros(d, dtype=np.intp), others)
        if pw is not None and None not in axes:
            break

    # the first axis with the largest (longest witness) * (multiplicity)
    n_two, mu_two = max(axes, key=lambda family: family[0] * family[1])
    n_pw, mu_pw = pw
    min_w = float(graph.w.min())
    return PathConstants(C_two=n_two * mu_two / n_cell,
                         C_pw=n_pw * mu_pw / n_cell / min_w,
                         M=M,
                         max_translation_path=n_two,
                         max_pair_path=n_pw,
                         min_weight=min_w,
                         translation_multiplicity=mu_two,
                         pair_multiplicity=mu_pw)


# ---------------------------------------------------------------------------
# local inequality harnesses


@dataclass
class InequalityReport:
    name: str
    constant_used: float
    worst_ratio: float
    trials: int
    witness: str = ""

    @property
    def holds(self):
        return self.worst_ratio <= 1.0

    def to_dict(self):
        return {"name": self.name, "constant": self.constant_used,
                "worst_ratio": self.worst_ratio, "trials": self.trials,
                "witness": self.witness, "holds": bool(self.holds)}


def _check_seed_and_trials(seed, trials, least):
    """Rejects a seed that is not a non-negative integer and a trial count
    that is not an integer of at least `least`.  No harness draws a random
    field, but both arguments stay part of its contract."""
    try:
        index = operator.index(seed)
    except TypeError:
        index = -1
    if index < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    try:
        count = operator.index(trials)
    except TypeError:
        raise ValueError(f"trials must be an integer, got {trials!r}") from None
    if count < least:
        raise ValueError(f"trials must be at least {least}, got {trials!r}")


def _largest(ratios, labels):
    """(largest ratio, label of the earliest ratio within relative 1e-12 of
    it, so that rounding does not pick the witness); (0.0, "") when no ratio
    is positive."""
    worst = max(ratios, default=0.0)
    if worst <= 0:
        return 0.0, ""
    return worst, next(label for r, label in zip(ratios, labels)
                       if math.isclose(r, worst, rel_tol=1e-12))


def _local_region(graph):
    """The path constants and the FiniteGraph of the d-positions
    [-(M - 1), 2T - 1 + (M - 1)]^d, which holds every region of both local
    harnesses."""
    consts = graph.path_constants
    T, d, M = graph.T, graph.d, consts.M
    return consts, position_box(graph, [-(M - 1)] * d, [2 * T - 1 + (M - 1)] * d)


def _extremal_ratios(positions, regions, constant):
    """_largest over `regions` (label, ends, coef, source, C) on the vertices
    at d-positions `positions` of the supremum over fields u of
    |C^T u|^2 / edge_energy(ends, coef, u), divided by `constant` (0 when
    the supremum is 0); labels are "extremal" + label.  The columns of C
    sum to zero and lie in the component of `source`, so the supremum is
    lambda_max(C^T L^+ C) for the Laplacian L of the edges, and
    C^T L^+ C = C^T X for the X of graph.grounded_solve: one factorization
    per region, all columns at once.
    """
    ratios = []
    for _, ends, coef, source, C in regions:
        X = grounded_solve(positions, ends, coef, source, C)
        sup = float(np.linalg.eigvalsh(C.T @ X)[-1])
        ratios.append(sup / constant if sup > 0 else 0.0)
    return _largest(ratios, ["extremal" + label for label, *_ in regions])


def check_two_connectedness(graph, trials=200, seed=7):
    """Adjacent cell-mean differences vs. unweighted local edge energy.

    For each axis pair (cell 0, cell e_m), the supremum over all fields u of
    |mean_0 u - mean_{e_m} u|^2 over the sum over ordered edge pairs inside
    the (-M, M)-enlarged pair box of |u_i - u_j|^2, divided by C_two: with
    a = 1_cell0 / n - 1_cell(e_m) / n and L the Laplacian of the box's edges
    with coefficient 2, it is a^T L^+ a (_extremal_ratios, one factorization
    per axis).  The report holds the largest ratio over the axes.  `trials`
    (at least 1) and `seed` are validated but draw nothing: no random field
    is scored, and the report's trial count is 0.
    """
    _check_seed_and_trials(seed, trials, 1)
    consts, (pos, _, ends, _) = _local_region(graph)
    T, d, M, n = graph.T, graph.d, consts.M, graph.n_cell
    in_cell = np.flatnonzero(inside(pos, 0, T - 1))
    regions = []
    for other in np.eye(d, dtype=int):
        a = np.zeros((len(pos), 1))
        a[in_cell] = 1.0 / n
        a[inside(pos, T * other, T * other + T - 1)] = -1.0 / n
        inner = ends[inside(pos, -(M - 1), T * other + T - 1 + (M - 1))[ends].all(axis=1)]
        regions.append((f", pair {(0,) * d}->{tuple(other.tolist())}",
                        inner, np.full(len(inner), 2.0), in_cell[0], a))
    worst, witness = _extremal_ratios(pos, regions, consts.C_two)
    return InequalityReport("two-connectedness", consts.C_two, worst, 0, witness)


def check_poincare_wirtinger(graph, trials=200, seed=7):
    """Per-cell deviation from the mean vs. weighted local edge energy.

    For cell 0, the supremum over all fields u of sum_i |u_i - mean u|^2
    over the cell's n members over the sum over ordered edge pairs inside
    the (-M, M)-enlarged cell box of w |u_i - u_j|^2, divided by C_pw: with
    C the columns e_i - 1_cell / n and L the Laplacian of the box's edges
    with coefficient 2w, it is lambda_max(C^T L^+ C), an n x n eigvalsh
    (_extremal_ratios).  Every other cell's enlarged box is cell 0's
    translated by whole periods, with the same edges and weights, so its
    supremum is the same and one region serves all cells.  The solve
    takes n right-hand sides, so its cost grows with the cell size: 3 ms at
    R(8) (64 columns, band) and 46 ms at R(16) (256 columns, SuperLU) on a
    2-vCPU x86 host.  A one-node cell has C = 0 and ratio 0.  `trials` and `seed` are validated
    as in check_two_connectedness and draw nothing.
    """
    _check_seed_and_trials(seed, trials, 1)
    consts, (pos, _, ends, weights) = _local_region(graph)
    T, d, M, n = graph.T, graph.d, consts.M, graph.n_cell
    keep = inside(pos, -(M - 1), T - 1 + (M - 1))[ends].all(axis=1)
    members = np.flatnonzero(inside(pos, 0, T - 1))
    C = np.zeros((len(pos), n))
    C[members] = np.eye(n) - 1.0 / n
    regions = [(f", cell {(0,) * d}", ends[keep], 2.0 * weights[keep], members[0], C)]
    worst, witness = _extremal_ratios(pos, regions, consts.C_pw)
    return InequalityReport("poincare-wirtinger", consts.C_pw, worst, 0, witness)


# ---------------------------------------------------------------------------
# domain-scale Poincare inequality


@dataclass
class PoincareReport:
    width_cells: int
    diameter: float
    c_empirical: float          # largest ratio of the extremal and tent fields
    c_sharp: float              # sharp constant: 1 / lowest eigenvalue, from its eigenvector
    c0: float                   # c_empirical / diameter^2
    trials: int
    witness: str = ""

    def to_dict(self):
        return {"width_cells": self.width_cells, "diameter": self.diameter,
                "c_empirical": self.c_empirical, "c_sharp": self.c_sharp,
                "c0": self.c0, "trials": self.trials, "witness": self.witness}


def _check_widths(widths):
    """The widths as ints; rejects one that is not an integer of at least 1."""
    checked = []
    for width in widths:
        try:
            checked.append(operator.index(width))
        except TypeError:
            raise ValueError(f"width {width!r} must be an integer") from None
        if checked[-1] < 1:
            raise ValueError(f"width {width!r} must be at least 1")
    return checked


def check_poincare(graph, widths, trials=100, seed=7):
    """Zero-boundary fields: squared norm vs. weighted edge energy per domain.

    Domains are boxes of `width` cells per axis at scale eps = 1; admissible
    fields vanish where the distance to the domain boundary is <= 2 sqrt(d) T.
    Reports the empirical constant, the sharp constant and the constant
    normalized by the squared diameter.  The sharp constant is the inverse
    Rayleigh quotient of the extremal field, the lowest eigenvector of the
    constrained weighted Laplacian (sparse shift-invert from a fixed start
    vector, so runs repeat exactly); the empirical constant is the larger
    ratio of that field and of the tent field (the distance to the boundary
    less the layer), the extremal one first.  Every width is checked before
    any box is built.  `trials` (at least 0) and `seed` are validated but
    draw nothing; the report's trial count is 0.
    """
    import scipy.sparse.linalg as spla
    _check_seed_and_trials(seed, trials, 0)
    widths = _check_widths(widths)
    d, T = graph.d, graph.T
    layer = 2.0 * math.sqrt(d) * T
    band = math.isqrt(4 * d * T * T) + 1       # floor(2 sqrt(d) T) + 1
    reports = []
    for width in widths:
        W = width * T
        pos, node_ids, ends, weights = position_box(graph, [0] * d, [W] * d)
        free = inside(pos, band, W - band)
        p = PinnedProblem(pos, node_ids, ends, 2.0 * weights, ~free, np.zeros(len(pos)))
        nf = int(free.sum())
        if nf == 0:
            raise ValueError(f"width {width} leaves no admissible vertex")
        A, _ = p.reduced_system()
        extremal = np.zeros(len(pos))
        extremal[free] = (spla.eigsh(A, k=1, sigma=0, v0=np.ones(nf))[1][:, 0]
                          if nf > 1 else 1.0)
        c_sharp = float(extremal @ extremal) / p.energy(extremal)

        dist = np.minimum(pos, W - pos).min(axis=1).astype(float)
        ratios = []
        for u in (extremal, np.maximum(dist - layer, 0.0)):
            top, energy = float((u[None, :] @ u[:, None])[0, 0]), p.energy(u)
            ratios.append(0.0 if top == 0 else math.inf if energy == 0 else top / energy)
        worst, witness = _largest(ratios, ["extremal", "tent"])
        diam = W * math.sqrt(d)
        reports.append(PoincareReport(width, diam, worst, c_sharp,
                                      worst / diam ** 2, 0, witness))
    return reports


# ---------------------------------------------------------------------------
# compactness-hypothesis norms


def hypothesis_norms(u, domain):
    """The two equi-boundedness quantities for a scaled lattice function.

    Returns (eps^d sum |u_i|^2, sum over interior adjacent cell pairs of the
    unweighted edge energy over the M-enlarged pair boxes, scaled eps^(d-2)).
    The pair sum is taken edge by edge: each edge's energy counts once per
    interior pair whose box holds both of its ends, and those counts are box
    sums of a summed-area table over the interior pairs.
    """
    g = u.graph
    eps = float(u.scale)
    d, T = g.d, g.T
    M = T
    l2 = eps ** d * float(u.values @ u.values)

    layer = 2.0 * eps * math.sqrt(d) * T
    full = u._full()[0]
    anchor = eps * full * T
    lo_dom, hi_dom = np.array(domain, dtype=float).reshape(d, 2).T
    interior = full[np.minimum(anchor - lo_dom, hi_dom - anchor).min(axis=1) > layer]
    if not len(interior):
        return l2, 0.0

    # the vertices' own cells span the box the edges are enumerated in
    box = CellBox(g, u.cells.min(axis=0), u.cells.max(axis=0) + 1)
    ends, _ = box.edges_among(box.index(u.cells, u.node_ids))
    ea, eb = (u.positions.take(ends[:, x], axis=0) for x in (0, 1))
    # pair (c, c + e_m) holds an edge iff, per axis, c <= floor((min + M - 1) / T)
    # and c >= ceil((max - M + 2) / T) - 1 - [axis == m]
    c_hi = (np.minimum(ea, eb) + M - 1) // T
    c_lo = -((M - 2 - np.maximum(ea, eb)) // T) - 1

    base = interior.min(axis=0)
    grid = np.zeros(tuple(interior.max(axis=0) - base + 2), dtype=bool)
    grid[tuple((interior - base).T)] = True
    count = np.zeros(len(ends), dtype=np.int64)
    for m in range(d):
        step = np.eye(d, dtype=int)[m]
        pairs = grid & np.roll(grid, -1, axis=m)        # the padding row rolls in as False
        table = np.pad(pairs.astype(np.int64), [(1, 0)] * d)
        for m2 in range(d):
            table = table.cumsum(axis=m2)
        lo = np.clip(c_lo - step - base, 0, pairs.shape)
        hi = np.maximum(np.clip(c_hi - base + 1, 0, pairs.shape), lo)
        for corner in np.ndindex(*(2,) * d):
            pick = np.where(np.array(corner, dtype=bool), hi, lo)
            count += (-1) ** (d - sum(corner)) * table[tuple(pick.T)]
    return l2, edge_energy(ends, 2.0 * count, u.values) * eps ** (d - 2)
