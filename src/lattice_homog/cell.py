"""Periodic cell problem: correctors and the homogenized tensor.

For a direction z the trial field is u_i = z . i^d + chi_i with chi periodic,
which turns the constrained minimization over one period into an
unconstrained positive-semidefinite solve on the quotient graph with the
graph's cached PeriodicOperator (L, b = B z, c = z^T C z); the tensor is d
conjugate-gradient solves against that one L, each a run of the package's
one CG loop (graph._preconditioned_cg), in one of three regimes by the
cell's node count n (the crossover table is in solve_corrector):
  * n <= DENSE_MAX_NODES: CG preconditioned by the operator's exact
    inverse, dense and built once per graph, which converges in one step;
  * n >= PCG_MIN_NODES and the cell re-tiles a smaller base cell: CG
    preconditioned with the FFT inverse of the base cell's mean-weight
    Bloch symbol (bloch.py), which keeps the step count nearly flat in T
    where the weights vary little;
  * every other cell: plain CG.
The energy is reported per cell volume T^d under one of two edge-counting
conventions: "double" counts every undirected orbit from both endpoints (the
energy written as a sum over ordered pairs), "single" counts each orbit
once; the double value is exactly twice the single one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDirection, NoConvergence
from .graph import _preconditioned_cg

CONVENTIONS = ("double", "single")

# Largest cell solved with the dense exact inverse, and smallest cell that
# runs FFT-preconditioned CG (the sweep is in solve_corrector).
DENSE_MAX_NODES = 160
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

    L must be PSD and b orthogonal to its kernel, the fields constant on
    each connected component of the quotient (b is by construction).  The
    loop is the package's one CG loop, graph._preconditioned_cg, on
    L chi = project(-b) with the norm bound 0, so its backward-error test is
    the relative-residual stop ||L chi + b|| <= tol * ||b||; b = 0 returns
    chi = 0.  The mean is projected out of every preconditioned residual,
    so roundoff cannot drift along the constants.  `residual` is the
    loop's recomputed ||L chi + b|| (its backward error times
    ||project(-b)||; no extra product with L).  NoConvergence, carrying that
    same norm as `residual`, is raised at 10 * n iterations, or on breakdown
    (p.Lp <= 0: L indefinite, or r.Mr <= 0: preconditioner indefinite),
    unless the recomputed residual meets the stop there.

    `precondition`, when given, maps a residual r to M r with M a PSD
    approximate inverse of L, and the loop is preconditioned CG on the same
    stopping rule.  PeriodicOperator.exact_inverse.dot is one whose M
    inverts L on the residuals, so the loop stops after one step;
    PeriodicOperator.preconditioner is another (bloch.py).  When None, the
    loop is plain CG, the projection its only preconditioner.

    `corrector` passes the exact inverse up to DENSE_MAX_NODES = 160 nodes,
    the FFT preconditioner (or None) from PCG_MIN_NODES = 256 up, and None
    in between.  One tensor, that is the d axis correctors with the inverse
    or preconditioner built first, of the random square cell R(T)
    (n = T^2, t = 1), the two-rail strip S(P) (n = 2P, no sub-period) and
    the random cube C(6) (d = 3, n = 216), on a 2-vCPU x86 host with one
    BLAS thread, in ms (median of three best-of-15 runs):

        cell     n     plain CG   exact inverse   FFT-PCG
        R(4)     16    0.49       0.19            2.08
        R(8)     64    1.16       0.30            2.93
        S(64)    128   2.75       1.23            -
        R(12)    144   2.10       1.20            3.63
        S(80)    160   2.55       1.30            -
        R(13)    169   2.00       2.12            4.16
        S(96)    192   2.46       2.53            -
        C(6)     216   2.06       3.42            -
        R(15)    225   2.28       3.34            2.96
        S(127)   254   3.12       6.02            -
        R(16)    256   2.60       4.62            3.03
        R(32)    1024  6.19       139             5.66

    The dense build grows as n^3 and plain CG as about n^(3/2) in d = 2,
    so for one tensor they meet between 160 and 190 nodes; below that the
    inverse wins by 1.7x or more even when it serves a single tensor.
    Below a few hundred nodes, building the FFT preconditioner and the FFT
    pair of each step cost more than the steps they save.
    """
    n = b.shape[0]
    project = lambda v: v - v.sum() / n
    rhs = project(-b)
    scale = float(np.linalg.norm(rhs))
    cap = max_iterations if max_iterations is not None else 10 * n
    M = project if precondition is None else lambda r: project(precondition(r))
    try:
        x, steps, backward = _preconditioned_cg(L.dot, rhs, M, 0.0, tol, cap, "corrector CG")
    except NoConvergence as err:
        achieved = err.residual * scale
        raise NoConvergence(f"{err}, residual {achieved:.3e}", residual=achieved) from None
    return CorrectorField(x, np.array([]), backward * scale, steps)


def corrector(graph, z, tol=1e-10):
    """Solve the cell problem for direction z.

    Cells of at most DENSE_MAX_NODES nodes run CG preconditioned by the
    operator's exact inverse, one step; cells of at least PCG_MIN_NODES
    nodes that re-tile a smaller base cell run CG preconditioned by its FFT
    preconditioner, and all others plain CG.  The solver, n, iterations and
    residual go to the `lattice_homog` logger at debug level.
    """
    z = _check_direction(graph, z)
    op = graph.operator
    small = graph.n_cell <= DENSE_MAX_NODES
    precondition = (op.exact_inverse.dot if small else
                    op.preconditioner if graph.n_cell >= PCG_MIN_NODES else None)
    field = solve_corrector(op.L, op.B @ z, tol=tol, precondition=precondition)
    field.direction = z
    if _log.isEnabledFor(logging.DEBUG):
        solver = ("exact-inverse" if small else "cg" if precondition is None else
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
