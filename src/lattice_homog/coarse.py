"""Coarse-graining and the structural inequalities behind compactness.

The coarse field replaces a lattice function by its per-cell arithmetic mean
(one cell = one period column times the full cross-section).  The two local
inequalities — adjacent cell means controlled by local edge differences, and
per-cell deviation from the mean controlled by weighted edge differences —
are verified empirically with constants computed from shortest-path structure,
as is the domain-scale Poincare inequality for fields vanishing near the
boundary.  Every box of vertices and edges comes from the shared box
enumerator (graph.position_box, graph.CellBox), every path from its
breadth-first search (graph.box_adjacency), every energy is
graph.edge_energy over its edge arrays, and the Poincare constant's matrix is
the shared pinned-vertex reduction (graph.pinned_reduction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import breadth_first_order

from .errors import CellOutOfWindow, DisconnectedGraph
from .graph import (CellBox, box_adjacency, connectedness_certificate, edge_energy,
                    laplacian, pinned_reduction, position_box)


@dataclass
class LatticeFunction:
    """Real values on a finite set of lattice vertices at scale eps."""

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
        self._cell_map = {}
        for i, c in enumerate(map(tuple, self.cells)):
            self._cell_map.setdefault(c, []).append(i)

    def cell_indices(self, cell):
        try:
            return self._cell_map[tuple(cell)]
        except KeyError:
            raise CellOutOfWindow(f"cell {tuple(cell)} not sampled") from None

    def full_cells(self):
        n = self.graph.n_cell
        return sorted(c for c, idx in self._cell_map.items() if len(idx) == n)


def function_on_window(fg, values, scale=1.0):
    """Wrap FiniteGraph vertex values as a LatticeFunction."""
    return LatticeFunction(fg.graph, fg.vertices, fg.node_ids, np.asarray(values, float), scale)


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

    @property
    def cell_volume(self):
        return float(self.scale * self.period) ** self.d

    def l2_norm(self, weight_nodes=1):
        vals = np.array(list(self.means.values()))
        return math.sqrt(weight_nodes * self.cell_volume * float(vals @ vals))


def coarse_field(u, domain):
    """Means over every full cell whose scaled box lies inside `domain`.

    `domain` is an open box ((a, b), ...); a half-open cell [lo, hi)^d is
    inside when lo > a and hi <= b per axis, so partial boundary cells are
    excluded.  A domain smaller than one cell yields an empty field.
    """
    T = u.graph.T
    eps = u.scale
    means = {}
    for cell in u.full_cells():
        lo = [eps * c * T for c in cell]
        hi = [eps * (c + 1) * T for c in cell]
        if all(l > a and h <= b for (a, b), l, h in zip(domain, lo, hi)):
            means[cell] = coarse_mean(u, cell)
    return CoarseField(means, eps, T, u.graph.d)


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
    counts up one level per step; edges sum their use over the sources.
    """
    box, adjacency = box_adjacency(graph, lo, hi)
    size, nodes = len(box.node_ids), np.arange(graph.n_cell)
    sources = box.index(np.zeros((len(nodes), graph.d), dtype=np.intp), nodes)
    ends = box.index(np.broadcast_to(cell, (len(nodes), graph.d)), nodes)[targets]
    longest, keys, counts = 0, [], []
    for source, target in zip(sources, ends):
        order, pred = breadth_first_order(adjacency, source, directed=True,
                                          return_predecessors=True)
        if np.any(target < 0) or np.any(pred[target] < 0):
            return None
        child, parent = order[1:], pred[order[1:]]
        step = below = np.bincount(target, minlength=size).astype(float)
        depth = 0
        while (step := np.bincount(parent, weights=step[child], minlength=size)).any():
            below, depth = below + step, depth + 1
        longest = max(longest, depth)
        used = child[below[child] > 0]
        keys.append(np.minimum(used, pred[used]) * size + np.maximum(used, pred[used]))
        counts.append(below[used])
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
    If a witness does not fit, M grows by T (re-tiling argument); a
    connected graph always terminates.
    """
    connectedness_certificate(graph)  # raises DisconnectedGraph on failure
    T, d, n_cell = graph.T, graph.d, graph.n_cell
    nodes = np.arange(n_cell)
    others = np.array([np.delete(nodes, i) for i in nodes])
    for M in range(T, 9 * T, T):
        lo, hi = [-(M - 1)] * d, T - 1 + (M - 1)
        axes = [_tree_paths(graph, lo, hi + T * unit, unit, nodes[:, None])
                for unit in np.eye(d, dtype=np.intp)]
        pw = _tree_paths(graph, lo, [hi] * d, np.zeros(d, dtype=np.intp), others)
        if pw is not None and None not in axes:
            break
    else:
        raise DisconnectedGraph("witness paths do not fit any tested enlargement")

    # the first axis with the largest (longest witness) * (multiplicity)
    n_two, mu_two = max(axes, key=lambda family: family[0] * family[1])
    n_pw, mu_pw = pw
    min_w = min(o.weight for o in graph.orbits)
    return PathConstants(C_two=n_two * mu_two / n_cell,
                         C_pw=n_pw * mu_pw / n_cell / min_w,
                         M=M,
                         max_translation_path=n_two,
                         max_pair_path=n_pw,
                         min_weight=min_w,
                         translation_multiplicity=mu_two,
                         pair_multiplicity=mu_pw)


# ---------------------------------------------------------------------------
# random-field harnesses


@dataclass
class InequalityReport:
    name: str
    constant_used: float
    worst_ratio: float
    trials: int
    witness: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def holds(self):
        return self.worst_ratio <= 1.0

    def to_dict(self):
        return {"name": self.name, "constant": self.constant_used,
                "worst_ratio": self.worst_ratio, "trials": self.trials,
                "witness": self.witness, "holds": bool(self.holds), **self.extra}


def _trial_field(seed, pos, node_ids, t):
    """Deterministic per-trial families: gaussian, affine, indicator, checkerboard.

    Each trial draws from its own (seed, t)-keyed stream, so trials can run
    in any order without changing the outcome.
    """
    rng = np.random.default_rng((seed, t))
    n = len(pos)
    fam = ("gaussian", "affine", "indicator", "checkerboard")[t % 4]
    if fam == "gaussian":
        return rng.standard_normal(n), fam
    if fam == "affine":
        slope = rng.standard_normal(pos.shape[1])
        vals = pos @ slope + rng.standard_normal()
        return vals, fam
    if fam == "indicator":
        vals = np.zeros(n)
        vals[rng.integers(n)] = 1.0
        return vals, fam
    vals = ((pos.sum(axis=1) + node_ids) % 2).astype(float) * 2 - 1
    return vals, fam


def _inside(pos, lo, hi):
    """Mask of the rows of `pos` with lo <= pos <= hi on every axis."""
    return np.all((pos >= lo) & (pos <= hi), axis=1)


def _worst(ratios):
    """(largest ratio, label of the earliest ratio within relative 1e-12 of
    it) over (ratio, label) pairs, or (0.0, "") when no ratio is positive.

    Trials whose ratios are equal in exact arithmetic differ only by
    rounding, so the earliest of them is the witness that does not depend on
    it.
    """
    worst = max((r for r, _ in ratios), default=0.0)
    if worst <= 0:
        return 0.0, ""
    return worst, next(label for r, label in ratios
                       if math.isclose(r, worst, rel_tol=1e-12))


def check_two_connectedness(graph, trials=200, seed=7):
    """Adjacent cell-mean differences vs. unweighted local edge energy.

    For each trial field and each axis pair (cell 0, cell e_m), checks
    |mean_l - mean_l'|^2 <= C * sum over ordered edge pairs inside the
    (-M, M)-enlarged pair box of |u_i - u_j|^2.
    """
    consts = compute_path_constants(graph)
    T, d, M = graph.T, graph.d, consts.M
    pos, node_ids, ends, _ = position_box(graph, [-(M - 1)] * d, [2 * T - 1 + (M - 1)] * d)
    in_cell = _inside(pos, 0, T - 1)
    pairs = []
    for other in np.eye(d, dtype=int):
        inner = ends[_inside(pos, -(M - 1), T * other + T - 1 + (M - 1))[ends].all(axis=1)]
        pairs.append((tuple(other.tolist()), _inside(pos, T * other, T * other + T - 1),
                      inner, np.full(len(inner), 2.0)))

    ratios = []
    for t in range(trials):
        u, fam = _trial_field(seed, pos, node_ids, t)
        for other, in_other, inner, coef in pairs:
            lhs = (float(u[in_cell].sum() / graph.n_cell)
                   - float(u[in_other].sum() / graph.n_cell)) ** 2
            rhs = edge_energy(inner, coef, u)
            ratio = 0.0 if lhs == 0 else (math.inf if rhs == 0
                                          else lhs / (consts.C_two * rhs))
            ratios.append((ratio, f"trial {t} ({fam}), pair {(0,) * d}->{other}"))
    worst, witness = _worst(ratios)
    return InequalityReport("two-connectedness", consts.C_two, worst, trials, witness)


def check_poincare_wirtinger(graph, trials=200, seed=7):
    """Per-cell deviation from the mean vs. weighted local edge energy."""
    consts = compute_path_constants(graph)
    T, d, M = graph.T, graph.d, consts.M
    pos, node_ids, ends, weights = position_box(graph, [-(M - 1)] * d,
                                                [2 * T - 1 + (M - 1)] * d)
    cells = [np.zeros(d, dtype=int)]
    if T - 1 + (M - 1) >= 2 * T - 1:   # a second full enlarged cell fits
        cells.append(np.eye(d, dtype=int)[0])
    cell_data = []
    for cell in cells:
        keep = _inside(pos, cell * T - (M - 1), (cell + 1) * T - 1 + (M - 1))[ends].all(axis=1)
        cell_data.append((tuple(cell.tolist()), _inside(pos, cell * T, (cell + 1) * T - 1),
                          ends[keep], 2.0 * weights[keep]))

    ratios = []
    for t in range(trials):
        u, fam = _trial_field(seed, pos, node_ids, t)
        for cell, mask, inner, coef in cell_data:
            mean = float(u[mask].sum() / graph.n_cell)
            lhs = float(((u[mask] - mean) ** 2).sum())
            rhs = edge_energy(inner, coef, u)
            ratio = 0.0 if lhs == 0 else (math.inf if rhs == 0
                                          else lhs / (consts.C_pw * rhs))
            ratios.append((ratio, f"trial {t} ({fam}), cell {cell}"))
    worst, witness = _worst(ratios)
    return InequalityReport("poincare-wirtinger", consts.C_pw, worst, trials, witness)


# ---------------------------------------------------------------------------
# domain-scale Poincare inequality


@dataclass
class PoincareReport:
    width_cells: int
    diameter: float
    c_empirical: float          # smallest C with lhs <= C * rhs over all trials
    c_sharp: float              # sharp constant: 1 / lowest eigenvalue, from its eigenvector
    c0: float                   # c_empirical / diameter^2
    trials: int
    witness: str = ""

    def to_dict(self):
        return {"width_cells": self.width_cells, "diameter": self.diameter,
                "c_empirical": self.c_empirical, "c_sharp": self.c_sharp,
                "c0": self.c0, "trials": self.trials, "witness": self.witness}


def check_poincare(graph, widths, trials=100, seed=7):
    """Zero-boundary fields: squared norm vs. weighted edge energy per domain.

    Domains are boxes of `width` cells per axis at scale eps = 1; admissible
    fields vanish where the distance to the domain boundary is <= 2 sqrt(d) T.
    Reports the empirical constant, the sharp constant and the constant
    normalized by the squared diameter.  The sharp constant is the inverse
    Rayleigh quotient of the extremal field, the lowest eigenvector of the
    constrained weighted Laplacian (sparse shift-invert from a fixed start
    vector, so runs repeat exactly); that field is also the first trial.
    """
    d, T = graph.d, graph.T
    layer = 2.0 * math.sqrt(d) * T
    reports = []
    for width in widths:
        W = width * T
        pos, node_ids, ends, weights = position_box(graph, [0] * d, [W] * d)
        coef = 2.0 * weights
        dist = np.minimum(pos, W - pos).min(axis=1).astype(float)
        free = dist > layer
        nf = int(free.sum())
        if nf == 0:
            raise ValueError(f"width {width} leaves no admissible vertex")
        A, _ = pinned_reduction(laplacian(len(pos), ends, coef), ~free, np.zeros(len(pos)))
        extremal = np.zeros(len(pos))
        extremal[free] = (spla.eigsh(A, k=1, sigma=0, v0=np.ones(nf))[1][:, 0]
                          if nf > 1 else 1.0)
        c_sharp = float(extremal @ extremal) / edge_energy(ends, coef, extremal)

        fields = [("extremal", extremal),
                  ("tent", np.maximum(dist - layer, 0.0))]
        for t in range(trials):
            u, fam = _trial_field(seed + width, pos, node_ids, t)
            fields.append((f"trial {t} ({fam})", u * free))
        ratios = []
        for fam, u in fields:
            lhs = float(u @ u)
            rhs = edge_energy(ends, coef, u)
            if lhs != 0:
                ratios.append((math.inf if rhs == 0 else lhs / rhs, fam))
        worst, witness = _worst(ratios)
        diam = W * math.sqrt(d)
        reports.append(PoincareReport(width, diam, worst, c_sharp,
                                      worst / diam ** 2, trials, witness))
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
    full = np.array(u.full_cells(), dtype=int).reshape(-1, d)
    anchor = eps * full * T
    lo_dom, hi_dom = np.array(domain, dtype=float).reshape(d, 2).T
    interior = full[np.minimum(anchor - lo_dom, hi_dom - anchor).min(axis=1) > layer]
    if not len(interior):
        return l2, 0.0

    # the vertices' own cells span the box the edges are enumerated in
    cells = (u.positions - g.operator.dpos[u.node_ids]) // T
    box = CellBox(g, cells.min(axis=0), cells.max(axis=0) + 1)
    ends, _ = box.edges_among(box.index(cells, u.node_ids))
    ea, eb = u.positions[ends[:, 0]], u.positions[ends[:, 1]]
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
