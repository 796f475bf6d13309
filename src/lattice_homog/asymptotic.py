"""Finite-window energies with affine boundary clamping.

The window value at size K minimizes the quadratic energy over the K^d-cell
box with every vertex within Euclidean distance 2*sqrt(d)*T of the box
boundary pinned to the affine field z . i^d.  Interactions reaching one step
outside the box are kept, with the outside endpoint held at its affine
value; this makes the periodic cell value a true lower bound for every K.

The window comes from the shared box enumerator (graph.instantiate_window)
and its minimizer from the shared pinned-vertex solve (graph.pinned_solve),
with the outside endpoints as pinned ghost vertices.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cell import convention_factor, f_hom
from .errors import WindowTooSmall
from .graph import edge_energy, instantiate_window, laplacian, pinned_solve
from .util import parallel_map


@dataclass
class WindowProblem:
    K: int
    direction: np.ndarray
    finite: object                  # clamped FiniteGraph over {0..K-1}^d cells
    clamped: np.ndarray             # bool per vertex: window vertices, then ghosts
    affine: np.ndarray              # z . position per vertex
    ends: np.ndarray                # (E, 2) vertex pairs: window edges, then ghost edges
    coef: np.ndarray                # 2 w per window edge (ordered pairs), w per ghost edge


def boundary_layer_width(graph):
    return 2.0 * math.sqrt(graph.d) * graph.T


def build_window_problem(graph, z, K):
    """Set up the clamped K-window problem; K < 2 is a degenerate window.

    Ghosts (the outside ends of edges crossing the window boundary) are
    pinned vertices after the window's own.
    """
    if K < 2:
        raise WindowTooSmall("window needs K >= 2 (a single period is entirely "
                             "inside the clamped boundary layer)")
    z = np.asarray(z, dtype=float).reshape(-1)
    fg = instantiate_window(graph, [(0, K)] * graph.d, wrap="clamped")
    side = K * graph.T
    dist = np.minimum(fg.vertices, side - fg.vertices).min(axis=1)
    clamped = np.concatenate([dist < boundary_layer_width(graph),
                              np.ones(len(fg.boundary_vertices), dtype=bool)])
    affine = np.concatenate([fg.vertices, fg.boundary_vertices]) @ z
    ends = np.concatenate([fg.edges, fg.ghost_edges + [0, len(fg.vertices)]])
    coef = np.concatenate([2.0 * fg.weights, fg.ghost_weights])
    return WindowProblem(K, z, fg, clamped, affine, ends, coef)


def _solve_window(problem):
    """Values per vertex minimizing the clamped window energy."""
    L = laplacian(len(problem.affine), problem.ends, problem.coef)
    return pinned_solve(L, problem.clamped, problem.affine)


def window_energy(problem, values, convention="double"):
    """Evaluate the clamped-window energy of `values` under `convention`.

    Interior orbit instances count twice (ordered pairs), interactions into
    the affine ring once; the single-count value is exactly half.
    """
    e = edge_energy(problem.ends, problem.coef, values)
    return float(convention_factor(convention) / 2.0 * e)


def finite_window_value(graph, z, K, convention="double"):
    """Energy density of the K-window problem: minimum energy / (KT)^d."""
    problem = build_window_problem(graph, z, K)
    values = _solve_window(problem)
    vol = float(K * graph.T) ** graph.d
    return window_energy(problem, values, convention=convention) / vol


def affine_energy_density(graph, z, convention="double"):
    """Energy density of the uncorrected affine field z . i^d: factor z^T C z / T^d."""
    z = np.asarray(z, dtype=float).reshape(-1)
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
    the fit is a diagnostic, the theory only gives gap -> 0.
    """
    Ks = list(Ks)
    if Ks != sorted(Ks):
        raise ValueError("Ks must be sorted ascending")
    cell_value = f_hom(graph, z, tol=tol, convention=convention)
    table = ConvergenceTable(tuple(np.asarray(z, dtype=float)), convention, cell_value)

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


def tiling_check(graph, z, K, convention="double", slack=1e-6):
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
    return TilingCheck(K, H, m ** d, fH, rhs, slack)
