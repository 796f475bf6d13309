"""Periodic cell problem: correctors and the homogenized tensor.

For a direction z the trial field is u_i = z . i^d + chi_i with chi periodic,
which turns the constrained minimization over one period into an
unconstrained positive-semidefinite solve on the quotient graph with the
graph's cached PeriodicOperator (L, b = B z, c = z^T C z); the tensor is d
conjugate-gradient solves against that one L.  A cell of at least
PCG_MIN_NODES nodes that re-tiles a smaller base cell is solved by CG
preconditioned with the FFT inverse of the base cell's mean-weight Bloch
symbol (bloch.py), which keeps the step count nearly flat in T where the
weights vary little; every other cell runs plain CG.  The energy is reported per
cell volume T^d under one of two edge-counting conventions: "double" counts
every undirected orbit from both endpoints (the energy written as a sum over
ordered pairs), "single" counts each orbit once; the double value is exactly
twice the single one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDirection, NoConvergence

CONVENTIONS = ("double", "single")

# Smallest cell that runs preconditioned CG (the sweep is in solve_corrector).
PCG_MIN_NODES = 256

_log = logging.getLogger("lattice_homog")


def convention_factor(convention):
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    return 2.0 if convention == "double" else 1.0


def _check_direction(graph, z):
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape != (graph.d,) or not np.all(np.isfinite(z)):
        raise InvalidDirection(f"direction must be a finite vector of length {graph.d}")
    return z


@dataclass
class CorrectorField:
    """Mean-zero periodic deviation chi from the affine field z . i^d."""

    values: np.ndarray
    direction: np.ndarray
    residual: float
    iterations: int = 0         # CG steps taken (one mat-vec with L each)

    def as_dict(self, graph):
        return {str(node): float(v) for node, v in zip(graph.nodes, self.values)}


@dataclass
class HomogenizedTensor:
    entries: np.ndarray
    convention: str
    tolerance: float
    correctors: tuple = ()

    def quadratic_form(self, z):
        z = np.asarray(z, dtype=float)
        return float(z @ self.entries @ z)


def assemble_quotient_system(graph, z):
    """Single-count quadratic data (L, b, c) with energy chi^T L chi + 2 b.chi + c.

    L is the weighted quotient-graph Laplacian (offsets ignored for the
    coupling pattern), b collects weight * (z . geometric d-displacement)
    over oriented orbit incidences, and c is the affine part's energy.
    L is the graph's cached matrix, shared by every caller: read-only.
    """
    z = _check_direction(graph, z)
    op = graph.operator
    return op.L, op.B @ z, float(z @ op.C @ z)


def solve_corrector(L, b, tol=1e-10, max_iterations=None, precondition=None):
    """Minimize chi^T L chi + 2 b.chi over mean-zero chi by conjugate gradients.

    L must be PSD with kernel spanned by constants (connected quotient); b is
    orthogonal to constants by construction.  The mean is projected out every
    step so roundoff cannot drift along the kernel.  Stops when
    ||L chi + b|| <= tol * ||b|| (or <= tol for b = 0); raises NoConvergence
    at 10 * n iterations, or on breakdown (p.Lp <= 0: L indefinite, or
    r.Mr <= 0: preconditioner indefinite).

    `precondition`, when given, maps a residual r to M r with M a PSD
    approximate inverse of L, and the loop is preconditioned CG on the same
    stopping rule; PeriodicOperator.preconditioner is one (bloch.py).  When
    None, the loop is plain CG with no extra work per step.

    `corrector` passes the preconditioner from PCG_MIN_NODES = 256 nodes
    up.  Axis-0 corrector of the random square cell R(T) (n = T^2, t = 1),
    best of 50 solves on a 2-vCPU x86 host, plain -> preconditioned:
    R(4) 0.52 -> 1.42 ms (15 -> 12 iterations), R(8) 0.67 -> 1.05 ms
    (36 -> 16), R(10) 1.45 -> 1.90 ms (46 -> 16), R(12) 1.16 -> 1.96 ms
    (58 -> 17), R(16) 1.59 -> 1.28 ms (76 -> 18), R(32) 3.76 -> 1.65 ms
    (136 -> 18).  Below the crossover the FFT pair of each step costs more
    than the steps it saves.
    """
    n = b.shape[0]
    project = lambda v: v - v.mean()
    target = tol * np.linalg.norm(b) if np.linalg.norm(b) > 0 else tol
    x = np.zeros(n)
    r = project(-b - L @ x)
    if np.linalg.norm(r) <= target:
        return CorrectorField(x, np.array([]), float(np.linalg.norm(L @ x + b)), 0)
    p = r.copy() if precondition is None else project(precondition(r))
    rs = r @ p
    cap = max_iterations if max_iterations is not None else 10 * n
    for it in range(cap):
        Lp = L @ p
        denom = p @ Lp
        if denom <= 0 or rs <= 0:
            name, value = ("p.Lp", denom) if denom <= 0 else ("r.Mr", rs)
            stop = f"broke down at iteration {it} ({name} = {value:.3e} <= 0)"
            break
        alpha = rs / denom
        x = project(x + alpha * p)
        r = project(r - alpha * Lp)
        rr = r @ r
        if np.sqrt(rr) <= target:
            return CorrectorField(x, np.array([]), float(np.linalg.norm(L @ x + b)), it + 1)
        if precondition is None:
            s, rs_new = r, rr
        else:
            s = project(precondition(r))
            rs_new = r @ s
        p = s + (rs_new / rs) * p
        rs = rs_new
    else:
        it = cap
        stop = f"hit the {cap}-iteration cap"
    achieved = float(np.linalg.norm(L @ x + b))
    if achieved <= target:
        return CorrectorField(x, np.array([]), achieved, it)
    raise NoConvergence(f"corrector CG {stop} (residual {achieved:.3e})", residual=achieved)


def corrector(graph, z, tol=1e-10):
    """Solve the cell problem for direction z.

    Cells of at least PCG_MIN_NODES nodes that re-tile a smaller base cell
    run CG preconditioned by the operator's FFT preconditioner; all others
    run plain CG.  The solver, n, iterations and residual go to the
    `lattice_homog` logger at debug level.
    """
    z = _check_direction(graph, z)
    op = graph.operator
    precondition = op.preconditioner if graph.n_cell >= PCG_MIN_NODES else None
    field = solve_corrector(op.L, op.B @ z, tol=tol, precondition=precondition)
    field.direction = z
    if _log.isEnabledFor(logging.DEBUG):
        solver = ("cg" if precondition is None else
                  f"fft-pcg (t={precondition.t}, n0={precondition.n0})")
        _log.debug("corrector: solver %s, n %d, iterations %d, residual %.3e",
                   solver, graph.n_cell, field.iterations, field.residual)
    return field


def cell_energy(graph, z, corrector_field, convention="double"):
    """Energy per cell volume of the corrected field, under `convention`."""
    z = _check_direction(graph, z)
    factor = convention_factor(convention)
    op = graph.operator
    chi = corrector_field.values
    value = float(chi @ (op.L @ chi) + 2.0 * ((op.B @ z) @ chi) + z @ op.C @ z)
    return factor * value / graph.T ** graph.d


def f_hom(graph, z, tol=1e-10, convention="double"):
    """Homogenized energy density in direction z."""
    return cell_energy(graph, z, corrector(graph, z, tol=tol), convention=convention)


def homogenized_tensor(graph, tol=1e-10, convention="double"):
    """A with A z.z = f_hom(z), from the d axis correctors X (L X = -B).

    A = factor / T^d * sym(C + B^T X + X^T B + X^T L X) is the energy of the
    corrected fields, so its error is quadratic in the CG residual; sym makes
    A[m, n] == A[n, m] exactly.
    """
    op = graph.operator
    fields = [corrector(graph, e, tol=tol) for e in np.eye(graph.d)]
    X = np.column_stack([f.values for f in fields])
    BX = op.B.T @ X
    A = op.C + BX + BX.T + X.T @ (op.L @ X)
    A = convention_factor(convention) / graph.T ** graph.d * 0.5 * (A + A.T)
    return HomogenizedTensor(A, convention, tol, tuple(fields))
