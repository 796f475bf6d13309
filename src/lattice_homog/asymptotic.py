"""Finite-window energies with affine boundary clamping.

The window value at size K minimizes the quadratic energy over the K^d-cell
box with every vertex within Euclidean distance 2*sqrt(d)*T of the box
boundary pinned to the affine field z . i^d.  Interactions reaching outside
the box are kept, with the outside endpoint held at its affine value; this
makes the periodic cell value a lower bound for every K in exact arithmetic
(in floating point, ex1 at K = 16 falls one rounding below it).

The box is an open window of the shared enumerator (graph.instantiate_window)
padded by the longest orbit offset on every side, so every bond leaving the
box ends in the padding, where every vertex is pinned; a vertex is in the
box when its d-position is in [0, K*T - 1].  Node d-coordinates lie in
[0, T), so that holds exactly when the vertex's cell is in [0, K)^d: the
ends of an edge inside the box and the pinned band are per-axis tests on
the window's cell grid, without a pass over the vertices' positions.  It is
a graph.PinnedProblem with band ceil(2*sqrt(d)*T).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cell import _check_direction, convention_factor, f_hom
from .errors import WindowTooSmall
from .graph import PinnedProblem, _within, instantiate_window
from .util import parallel_map


def build_window_problem(graph, z, K):
    """Set up the clamped K-window problem; K < 2 is a degenerate window.

    The window is padded by r = max |offset component| cells per side.  An
    edge weighs w times the number of its ends inside the K-window, so
    padding-only edges drop out and the outside ends of crossing bonds are
    pinned padding vertices, as is a vertex nearer than 2 sqrt(d) T to the box.
    Both vertex masks (inside the K-window, pinned) are graph._within's
    per-axis tests on the window's cells.  The values z . x are summed axis
    by axis in axis order, as a scalar loop over the axes would: a matrix
    product's rounding depends on the BLAS kernel.
    """
    if K < 2:
        raise WindowTooSmall("window needs K >= 2 (a single period is entirely "
                             "inside the clamped boundary layer)")
    z = _check_direction(graph, z)
    d, T = graph.d, graph.T
    r = int(np.abs(graph.offset).max(initial=0))
    pos, node_ids, ends, weights = instantiate_window(graph, [(-r, K + r)] * d)
    band = math.isqrt(4 * d * T ** 2 - 1) + 1      # ceil(2 sqrt(d) T)
    box = ([-r] * d, (K + 2 * r,) * d)
    within = _within(graph, *box, 0, K * T - 1).view(np.int8)
    coef = weights * (within[ends[:, 0]] + within[ends[:, 1]])     # ends inside: 0, 1 or 2
    keep = coef > 0
    values = np.zeros(len(pos))
    for column, slope in zip(pos.T, z):
        values += column * slope
    return PinnedProblem(pos, node_ids, ends.compress(keep, axis=0), coef[keep],
                         ~_within(graph, *box, band, K * T - band), values)


def window_energy(problem, values, convention="double"):
    """Evaluate the clamped-window energy of `values` under `convention`.

    Interior orbit instances count twice (ordered pairs), interactions into
    the affine ring once; the single-count value is exactly half.
    """
    return float(convention_factor(convention) / 2.0 * problem.energy(values))


def finite_window_value(graph, z, K, convention="double"):
    """Energy density of the K-window problem: minimum energy / (KT)^d."""
    problem = build_window_problem(graph, z, K)
    values = problem.solve()
    vol = float(K * graph.T) ** graph.d
    return window_energy(problem, values, convention=convention) / vol


def affine_energy_density(graph, z, convention="double"):
    """Energy density of the uncorrected affine field z . i^d: factor z^T C z / T^d."""
    z = _check_direction(graph, z)
    return convention_factor(convention) * float(z @ graph.operator.C @ z) / graph.T ** graph.d


@dataclass
class StudyEntry:
    K: int
    value: float
    gap: float
    seconds: float


@dataclass
class ConvergenceTable:
    direction: tuple
    convention: str
    cell_value: float
    rows: list = field(default_factory=list)
    rate_exponent: float = float("nan")

    def to_rows(self):
        return [{"K": r.K, "f0K": r.value, "gap": r.gap, "seconds": r.seconds}
                for r in self.rows]


def convergence_study(graph, z, Ks, tol=1e-10, convention="double"):
    """Window values for each K with gaps against the periodic cell value.

    Also fits gap ~ c / K^p on the rows with positive gap and reports p;
    the fit is a diagnostic, the theory only gives gap -> 0.  Ks must be
    strictly increasing: a repeated K adds no point to the fit.
    """
    Ks = list(Ks)
    if any(a >= b for a, b in zip(Ks, Ks[1:])):
        raise ValueError("Ks must be strictly increasing")
    cell_value = f_hom(graph, z, tol=tol, convention=convention)
    table = ConvergenceTable(tuple(np.asarray(z, dtype=float).tolist()), convention,
                             cell_value)

    def run(K):
        t0 = time.perf_counter()
        value = finite_window_value(graph, z, K, convention=convention)
        return StudyEntry(K, value, value - cell_value, time.perf_counter() - t0)

    table.rows = parallel_map(run, Ks)
    pos = [(r.K, r.gap) for r in table.rows if r.gap > 0]
    if len(pos) >= 2:
        lk = np.log([p[0] for p in pos])
        lg = np.log([p[1] for p in pos])
        slope = np.polyfit(lk, lg, 1)[0]
        table.rate_exponent = float(-slope)
    return table


TILING_SLACK = 1e-6        # absolute tolerance of TilingCheck.holds


@dataclass
class TilingCheck:
    K: int
    H: int
    tiles: int
    lhs: float      # f_0^H
    rhs: float      # tiling construction bound
    slack: float

    @property
    def holds(self):
        return self.lhs <= self.rhs + self.slack


def tiling_check(graph, z, K, convention="double"):
    """Verify the tiling bound relating the 2K-window to the K-window.

    Placing floor(H/(K+1))^d copies of a K-window minimizer on a grid of
    pitch K+1 and filling the remaining cells with the affine field gives

        f_0^H <= (m K / H)^d (f_0^K + 1/K) + alpha (H^d - (m K)^d) / H^d

    with m the tile count per axis and alpha the affine energy density.
    """
    H = 2 * K
    m = H // (K + 1)
    d = graph.d
    fK = finite_window_value(graph, z, K, convention=convention)
    fH = finite_window_value(graph, z, H, convention=convention)
    alpha = affine_energy_density(graph, z, convention=convention)
    covered = (m ** d) * (K ** d) / float(H ** d)
    rhs = covered * (fK + 1.0 / K) + alpha * (1.0 - covered)
    return TilingCheck(K, H, m ** d, fH, rhs, TILING_SLACK)
