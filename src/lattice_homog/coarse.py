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
inequality for fields vanishing near the boundary.  Each harness states its
regions as data (label, left-hand side, edge ends, coefficients) and one
loop, _worst_ratio, scores every trial field on every region.  The trial
fields come in blocks of at most TRIAL_BLOCK = 16 rows of one array: a
block's edge energies and left-hand sides on a region are one array pass
each, and a block bounds the memory the trials take.  Trial t draws from
the stream of default_rng((seed, t)); the seed words of every trial of a
call are computed in one array pass, so a report is a pure function of
(graph, trials, seed).  Boxes come
from graph.position_box and graph.CellBox, paths from graph.box_adjacency,
energies are graph.edge_energy's running sums, the Poincare problem is a
graph.PinnedProblem and the path constants are LatticeGraph.path_constants,
one per graph.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import breadth_first_order

from .errors import CellOutOfWindow, DisconnectedGraph
from .graph import (CellBox, PinnedProblem, box_adjacency, connectedness_certificate,
                    edge_energy, inside, position_box)


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
    box, adjacency = box_adjacency(graph, lo, hi)
    size, nodes = len(box.node_ids), np.arange(graph.n_cell)
    sources = box.index(np.zeros((len(nodes), graph.d), dtype=np.intp), nodes)
    ends = box.index(np.broadcast_to(cell, (len(nodes), graph.d)), nodes)[targets]
    longest, keys, counts = 0, [], []
    position = np.empty(size, dtype=np.intp)
    for source, target in zip(sources, ends):
        order, pred = breadth_first_order(adjacency, source, directed=True,
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
# random-field harnesses


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


# Trial fields built and scored at a time: bounds the (trials, vertices) arrays.
TRIAL_BLOCK = 16
FAMILIES = ("gaussian", "affine", "indicator", "checkerboard")

# numpy's SeedSequence hash constants (O'Neill's seed_seq_fe, 4-word pool)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43b0d7e5, 0x931e8875, 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R, _WORD = 0xca01f9dd, 0x4973f715, 0xffffffff


def _seed_states(seed, ts):
    """SeedSequence((seed, t)).generate_state(4, np.uint64) for every t in
    `ts` (each below 2**32), one row per t, in one uint32 array pass.

    The entropy of (seed, t) is the little-endian 32-bit words of seed, then
    t; the hash constants advance the same way for every t, so each step of
    SeedSequence's pool mixing is one operation on a column of all the t.
    The words stay in uint32 arrays, which wrap silently.
    """
    ts, seed = np.asarray(ts, dtype=np.uint32), operator.index(seed)
    words = [seed & _WORD]
    while seed > _WORD:
        seed >>= 32
        words.append(seed & _WORD)
    entropy = [np.full(len(ts), w, dtype=np.uint32) for w in words] + [ts]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _WORD
        value = value * const
        return value ^ value >> 16

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(ts)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for extra in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(extra))
    const, state = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _WORD
        value = value * const
        state.append((value ^ value >> 16).astype(np.uint64))
    return np.stack([state[i] | state[i + 1] << 32 for i in range(0, 8, 2)], axis=1)


class _SeedState(ISeedSequence):
    """One row of _seed_states, handed to PCG64 as its seed sequence: PCG64
    asks for generate_state(4, np.uint64) once, so it starts from the state
    of default_rng((seed, t)) and draws that stream."""

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _trial_fields(seed, pos, node_ids, trials):
    """Deterministic per-trial families: gaussian, affine, indicator,
    checkerboard, yielded in blocks of at most TRIAL_BLOCK trials as
    (names, U), row j of U the values of trial names[j].

    Each trial that draws draws from its own stream, that of
    default_rng((seed, t)), so trials can run in any order without changing
    the outcome; the checkerboard draws nothing.  The streams' seed states
    are _seed_states of all trials at once: SeedSequence's own hash, so
    each generator is PCG64 started from exactly default_rng's state.
    """
    n, coords = len(pos), pos.astype(float)     # pos @ slope casts pos the same way
    checkerboard = ((pos.sum(axis=1) + node_ids) % 2).astype(float) * 2 - 1
    states = _seed_states(seed, np.arange(trials))
    for start in range(0, trials, TRIAL_BLOCK):
        block = range(start, min(start + TRIAL_BLOCK, trials))
        U = np.zeros((len(block), n))
        for row, t in zip(U, block):
            fam = FAMILIES[t % 4]
            if fam == "checkerboard":
                row[:] = checkerboard
                continue
            rng = np.random.Generator(np.random.PCG64(_SeedState(states[t])))
            if fam == "gaussian":
                row[:] = rng.standard_normal(n)
            elif fam == "affine":
                slope = rng.standard_normal(pos.shape[1])
                row[:] = coords @ slope + rng.standard_normal()
            else:
                row[rng.integers(n)] = 1.0
        yield [f"trial {t} ({FAMILIES[t % 4]})" for t in block], U


def _worst_ratio(fields, regions, constant):
    """(largest ratio, witness) over every (field, region) pair.

    `fields` yields blocks (names, U), one field u per row of U; a region is
    (label, lhs, ends, coef), and its ratio for u is
    lhs(u) / (constant * edge_energy(ends, coef, u)): 0 when lhs(u) = 0,
    inf when the energy is 0.  lhs maps a block, or one field, to its values
    by reductions over the last axis of C-ordered arrays, so each row sums
    as its own 1-D field would; a block's energies on a region are one
    row-wise running sum, edge_energy bit for bit.  The witness, name +
    label, is that of the earliest pair, field by field and region by
    region, within relative 1e-12 of the largest ratio: pairs whose ratios
    are equal in exact arithmetic differ only by rounding, so the earliest
    of them is the witness that does not depend on it.  (0.0, "") when no
    ratio is positive.
    """
    names, tops, energies = [], [], []
    for block, U in fields:
        names += block
        tops.append(np.stack([lhs(U) for _, lhs, _, _ in regions], axis=1))
        energy = []
        for _, _, ends, coef in regions:
            diff = U[:, ends[:, 0]] - U[:, ends[:, 1]]
            energy.append(np.cumsum(coef * (diff * diff), axis=1)[:, -1]
                          if len(ends) else np.zeros(len(U)))
        energies.append(np.stack(energy, axis=1))
    if not names:
        return 0.0, ""
    top, energy = np.concatenate(tops).ravel(), np.concatenate(energies).ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(top == 0, 0.0,
                          np.where(energy == 0, math.inf, top / (constant * energy)))
    worst = float(ratios.max())
    if worst <= 0:
        return 0.0, ""
    # ratios are >= 0 and <= worst, so this is math.isclose(r, worst, rel_tol=1e-12)
    close = ratios == worst if worst == math.inf else worst - ratios <= 1e-12 * worst
    pair = int(np.argmax(close))
    return worst, names[pair // len(regions)] + regions[pair % len(regions)][0]


def _check_seed_and_trials(seed, trials, least):
    """Reject a seed that is not a non-negative integer and fewer than
    `least` trials, before any field is drawn."""
    try:
        valid = operator.index(seed) >= 0
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if trials < least:
        raise ValueError(f"trials must be at least {least}, got {trials!r}")


def check_two_connectedness(graph, trials=200, seed=7):
    """Adjacent cell-mean differences vs. unweighted local edge energy.

    For each trial field and each axis pair (cell 0, cell e_m), checks
    |mean_l - mean_l'|^2 <= C * sum over ordered edge pairs inside the
    (-M, M)-enlarged pair box of |u_i - u_j|^2.
    """
    _check_seed_and_trials(seed, trials, 1)
    consts = graph.path_constants
    T, d, M, n = graph.T, graph.d, consts.M, graph.n_cell
    pos, node_ids, ends, _ = position_box(graph, [-(M - 1)] * d, [2 * T - 1 + (M - 1)] * d)
    in_cell = np.flatnonzero(inside(pos, 0, T - 1))

    def mean_gap(u, members):
        # squared by a product: numpy's ** 2 can round a block's rows
        # differently from the same field alone
        gap = (u.take(in_cell, axis=-1).sum(axis=-1) / n
               - u.take(members, axis=-1).sum(axis=-1) / n)
        return gap * gap

    regions = []
    for other in np.eye(d, dtype=int):
        in_other = np.flatnonzero(inside(pos, T * other, T * other + T - 1))
        inner = ends[inside(pos, -(M - 1), T * other + T - 1 + (M - 1))[ends].all(axis=1)]
        regions.append((f", pair {(0,) * d}->{tuple(other.tolist())}",
                        lambda u, m=in_other: mean_gap(u, m),
                        inner, np.full(len(inner), 2.0)))
    worst, witness = _worst_ratio(_trial_fields(seed, pos, node_ids, trials), regions,
                                  consts.C_two)
    return InequalityReport("two-connectedness", consts.C_two, worst, trials, witness)


def check_poincare_wirtinger(graph, trials=200, seed=7):
    """Per-cell deviation from the mean vs. weighted local edge energy."""
    _check_seed_and_trials(seed, trials, 1)
    consts = graph.path_constants
    T, d, M, n = graph.T, graph.d, consts.M, graph.n_cell
    pos, node_ids, ends, weights = position_box(graph, [-(M - 1)] * d,
                                                [2 * T - 1 + (M - 1)] * d)
    cells = [np.zeros(d, dtype=int)]
    if T - 1 + (M - 1) >= 2 * T - 1:   # a second full enlarged cell fits
        cells.append(np.eye(d, dtype=int)[0])

    def deviation(u, members):
        cell_values = u.take(members, axis=-1)
        dev = cell_values - cell_values.sum(axis=-1, keepdims=True) / n
        return (dev * dev).sum(axis=-1)     # a product, as in mean_gap

    regions = []
    for cell in cells:
        keep = inside(pos, cell * T - (M - 1), (cell + 1) * T - 1 + (M - 1))[ends].all(axis=1)
        members = np.flatnonzero(inside(pos, cell * T, (cell + 1) * T - 1))
        regions.append((f", cell {tuple(cell.tolist())}",
                        lambda u, m=members: deviation(u, m),
                        ends[keep], 2.0 * weights[keep]))
    worst, witness = _worst_ratio(_trial_fields(seed, pos, node_ids, trials), regions,
                                  consts.C_pw)
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
    _check_seed_and_trials(seed, trials, 0)
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
        fields = itertools.chain(
            [(["extremal", "tent"], np.stack([extremal, np.maximum(dist - layer, 0.0)]))],
            ((names, U * free) for names, U in
             _trial_fields(seed + width, pos, node_ids, trials)))
        # u @ u per row, each a (1, N) @ (N, 1) product as for a single field
        norm = ("", lambda u: (u[..., None, :] @ u[..., None])[..., 0, 0], p.ends, p.coef)
        worst, witness = _worst_ratio(fields, [norm], 1)
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
