"""Periodic cell problem: correctors and the homogenized tensor.

For a direction z the trial field is u_i = z . i^d + chi_i with chi periodic,
which turns the constrained minimization over one period into an
unconstrained positive-semidefinite solve on the quotient graph with the
graph's cached PeriodicOperator (L, b = B z, c = z^T C z); the tensor is the
d axis correctors against that one L, found on one of two routes that
solve._corrector_route chooses once per operator by their predicted cost
(its docstring has the calibration sweep):
  * band: one product and no CG loop.  chi is linear in z, and the
    operator keeps the axis correctors X with L X = mean B - B, solved
    once per graph on one banded Cholesky factor of L in fold order with
    one vertex per quotient component grounded (solve.band_correctors),
    so chi = X z, checked by one residual product with L;
  * FFT, for large low-contrast cells that re-tile a smaller base cell:
    the package's one CG loop (solve._preconditioned_cg), preconditioned
    with the FFT inverse of the base cell's mean-weight Bloch symbol
    (bloch.py), which keeps the step count nearly flat in T where the
    weights vary little.  A cell that re-tiles no smaller one and whose
    band is over its memory cap takes the same loop with no preconditioner
    but the mean projection, and no energy certificate.
Every corrector meets the relative residual ||L chi + b|| / ||b|| <= `tol`,
so tol caps the residual; a band corrector X z that misses it is solved
again for b itself on the band, and raises NoConvergence if that misses
too.  The two functions that return energies, f_hom and
homogenized_tensor, also stop the FFT route at an energy certificate: the
energy error of chi with residual r is r^T L^+ r, and L >= rho L_ref for
the mean-weight reference L_ref whose pseudo-inverse M the preconditioner
applies (rho the least ratio of an orbit's weight to its base orbit's
mean weight, bloch.BaseCell), so r^T L^+ r <= (r.Mr) / rho, which CG
forms at every step.  The loop stops
once r.Mr <= eps rho c, c = z^T C z the single-count affine energy and
eps the double-precision epsilon: the iteration error is then below one
rounding of c (Arioli, Numer. Math. 97, 2004).  HomogenizedTensor.error_bound
bounds what stopping leaves in the entries; corrector and solve_corrector,
which return fields, keep the residual stop.
The energy is reported per cell volume T^d under one of two edge-counting
conventions: "double" counts every undirected orbit from both endpoints (the
energy written as a sum over ordered pairs), "single" counts each orbit
once; the double value is exactly twice the single one.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDirection, NoConvergence
from .solve import _EPS, _preconditioned_cg, quotient_solve

CONVENTIONS = ("double", "single")
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
    iterations: int = 0         # CG steps taken (one mat-vec with L each); 1 for X z
    r_Mr: float | None = None   # r.Mr at an energy-armed CG stop (solve_corrector)

    def as_dict(self, graph):
        return {str(node): float(v) for node, v in zip(graph.nodes, self.values)}


@dataclass
class HomogenizedTensor:
    """Doubled or single tensor from the d axis correctors.

    `tolerance` is the cap on each corrector's relative residual.
    `error_bound` bounds the absolute error of every entry that the solve
    leaves, factor / T^d * max_m r_m^T L^+ r_m for the axis residuals r_m
    (the entries exceed the exact ones by factor / T^d * R^T L^+ R, a PSD
    matrix), on either route: (r_m.Mr_m) / rho from the energy stop on the
    FFT route, and the exact r_m^T L^+ r_m from the band factor on the band
    route (PeriodicOperator.axis_errors).  It is inf, never None, where the
    FFT route has no preconditioner (a cell with no sub-period and a band
    over its cap, solve._corrector_route), which certifies nothing but a
    zero right-hand side.  It does not cover the rounding of the tensor's
    own sums, a few sqrt(n) eps of factor / T^d * max_m C_mm.
    """

    entries: np.ndarray
    convention: str
    tolerance: float
    correctors: tuple = ()
    error_bound: float = math.inf    # homogenized_tensor always sets it

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


def solve_corrector(L, b, tol=1e-10, max_iterations=None, precondition=None, energy_tol=0.0):
    """Minimize chi^T L chi + 2 b.chi over mean-zero chi by conjugate gradients.

    L must be PSD and b orthogonal to its kernel, the fields constant on
    each connected component of the quotient (b is by construction).  The
    loop is the package's one CG loop, solve._preconditioned_cg, on
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
    stopping rule: PeriodicOperator.preconditioner (bloch.py) on the FFT
    route.  When None, the loop is plain CG, the projection its only
    preconditioner, which the FFT route takes for a cell with no base cell
    (solve._corrector_route).
    `precondition` must leave r as it is, and may return r itself or a
    view of it: the projection makes a new array, and the loop writes to
    no array it is handed.

    With energy_tol > 0 the loop also stops once the r.Mr it forms is at
    most energy_tol (the energy stop of solve._preconditioned_cg), and the
    field's `r_Mr` is r.Mr of the residual it stops at.  With the default 0
    the stop is the residual test alone, bit for bit, and `r_Mr` is None
    (0 for b = 0).  f_hom and homogenized_tensor pass eps rho z^T C z on the
    FFT route.  Which cells take the FFT route, and what each route costs,
    is in solve._corrector_route.
    """
    n = b.shape[0]
    rhs = _project(-b)
    scale = float(np.linalg.norm(rhs))
    cap = max_iterations if max_iterations is not None else 10 * n
    M = _project if precondition is None else lambda r: _project(precondition(r))
    try:
        x, steps, backward, rz = _preconditioned_cg(L.dot, rhs, M, 0.0, tol, cap,
                                                    "corrector CG", energy_tol=energy_tol)
    except NoConvergence as err:
        achieved = err.residual * scale
        raise NoConvergence(f"{err}, residual {achieved:.3e}", residual=achieved) from None
    return CorrectorField(x, np.array([]), backward * scale, steps, rz)


def _project(v):
    """v with its mean removed (numpy's mean, bit for bit)."""
    return v - v.sum() / v.shape[0]


def corrector(graph, z, tol=1e-10):
    """Solve the cell problem for direction z.

    On the band route (solve._corrector_route) chi = X z, one product with
    the operator's cached axis correctors X, checked by one residual
    product: ||L chi - project(-B z)|| <= tol ||project(-B z)||.  A chi that
    passes reports 1 iteration and that residual; one that fails (B z a
    rounding residue of its cancelling columns) is solved for B z itself
    on the band factor, and raises NoConvergence carrying its residual if
    that misses too.  A zero right-hand side gives exact zeros after 0
    iterations on either route.  The FFT route runs solve_corrector with
    the FFT preconditioner, or with none where the cell has no base cell.
    Every route returns a field with ||L chi + b|| <= tol ||b||: the energy
    stop of f_hom and homogenized_tensor is not taken here.  The solver, n,
    iterations and residual go to the `lattice_homog` logger at debug
    level.
    """
    return _corrector(graph, _check_direction(graph, z), tol)[0]


def _corrector(graph, z, tol, certify=False):
    """(corrector field, B z, L chi or None) for a checked direction z; L chi
    is the product the band route's check has taken, None on the FFT route.
    With `certify` the FFT route, where it has a preconditioner, also
    takes the energy stop r.Mr <= eps rho z^T C z, and the field's
    r_Mr / rho bounds r^T L^+ r, the single-count energy error of chi."""
    op = graph.operator
    b = op.B @ z
    X = op.axis_correctors      # None on the FFT route
    if X is not None:
        field, Lchi = _band_corrector(op, X, z, b, tol)
    else:
        fft = op.preconditioner      # None: the cell re-tiles no smaller one
        certify = certify and fft is not None
        energy_tol = _EPS * fft.rho * float(z @ op.C @ z) if certify else 0.0
        field = solve_corrector(op.L, b, tol=tol, precondition=fft, energy_tol=energy_tol)
        field.direction, Lchi = z, None
    if _log.isEnabledFor(logging.DEBUG):
        fft = op.preconditioner if X is None else None
        solver = (f"band (width {op.band.width})" if X is not None else
                  "cg (no sub-period, band over its cap)" if fft is None else
                  f"fft-pcg (t={fft.t}, n0={fft.n0})")
        _log.debug("corrector: solver %s, n %d, iterations %d, residual %.3e",
                   solver, graph.n_cell, field.iterations, field.residual)
    return field, b, Lchi


def _band_corrector(op, X, z, b, tol):
    """(field, L chi) of chi = X z with X the axis correctors, checked by
    the relative-residual stop of solve_corrector.  Where the columns of
    B z cancel, b can be a rounding residue far below them, which X z,
    solved for the columns, cannot meet; chi is then solved for b itself
    on the band (solve.quotient_solve).  NoConvergence, with the residual,
    when that chi misses the stop too."""
    rhs = _project(-b)
    scale = math.sqrt(rhs @ rhs)
    if scale == 0:
        zeros = np.zeros_like(rhs)
        return CorrectorField(zeros, z, 0.0, 0), zeros
    chi, Lchi, residual = _checked(op.L, X @ z, rhs)
    if not residual <= tol * scale:     # a NaN residual fails too
        direct = quotient_solve(op.band, op.L, rhs[:, None])[0][:, 0]
        chi, Lchi, residual = _checked(op.L, direct, rhs)
    if not residual <= tol * scale:
        raise NoConvergence(f"band corrector missed its residual check: residual "
                            f"{residual:.3e} > tol {tol:.3e} x {scale:.3e}", residual=residual)
    return CorrectorField(chi, z, residual, 1), Lchi


def _checked(L, chi, rhs):
    """(chi, L chi, ||L chi - rhs||)."""
    Lchi = L @ chi
    r = Lchi - rhs
    return chi, Lchi, math.sqrt(r @ r)


def cell_energy(graph, z, corrector_field, convention="double"):
    """Energy per cell volume of the corrected field, under `convention`."""
    z = _check_direction(graph, z)
    factor = convention_factor(convention)
    op = graph.operator
    chi = corrector_field.values
    return _energy(graph, z, chi, op.B @ z, op.L @ chi, factor)


def _energy(graph, z, chi, b, Lchi, factor):
    value = float(chi @ Lchi + 2.0 * (b @ chi) + z @ graph.operator.C @ z)
    return factor * value / graph.T ** graph.d


def f_hom(graph, z, tol=1e-10, convention="double"):
    """Homogenized energy density in direction z: cell_energy of the
    corrector, with z checked once and B z and L chi each formed once.

    `tol` caps the corrector's relative residual.  On the FFT route with a
    preconditioner the corrector also stops once r.Mr <= eps rho z^T C z,
    so the energy it leaves above the minimum is below one rounding of the
    single-count affine energy (times the convention factor over T^d); the
    band route is that of `corrector`, with no per-call work added.
    """
    z = _check_direction(graph, z)
    factor = convention_factor(convention)
    field, b, Lchi = _corrector(graph, z, tol, certify=True)
    chi = field.values
    return _energy(graph, z, chi, b, graph.operator.L @ chi if Lchi is None else Lchi, factor)


def homogenized_tensor(graph, tol=1e-10, convention="double"):
    """A with A z.z = f_hom(z), from the d axis correctors X (L X = -B).

    A = factor / T^d * sym(C + B^T X + X^T B + X^T L X) is the energy of the
    corrected fields, so its error is quadratic in the CG residual; sym makes
    A[m, n] == A[n, m] exactly.  `tol` caps each axis corrector's relative
    residual; on the FFT route axis m also stops once r.Mr <= eps rho C_mm.
    `error_bound` certifies the entry error that stopping leaves (see
    HomogenizedTensor): from the loop's last r.Mr on the FFT route (inf
    with no preconditioner), and on the band route from the operator's
    axis_errors, solved beside X on the same factor; neither costs a
    tensor anything more.
    """
    op = graph.operator
    factor = convention_factor(convention) / graph.T ** graph.d
    fields = tuple(_corrector(graph, e, tol, certify=True)[0] for e in np.eye(graph.d))
    X = np.column_stack([f.values for f in fields])
    BX = op.B.T @ X
    LX = op.L @ X
    A = op.C + BX + BX.T + X.T @ LX
    A = factor * 0.5 * (A + A.T)
    if op.route == "band":
        errors = op.axis_errors
    elif op.preconditioner is None:     # CG with no certificate
        errors = np.array([0.0 if f.r_Mr == 0 else math.inf for f in fields])
    else:
        errors = np.array([f.r_Mr for f in fields]) / op.preconditioner.rho
    error_bound = factor * float(np.max(errors, initial=0.0))
    return HomogenizedTensor(A, convention, tol, fields, error_bound)
