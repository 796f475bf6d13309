"""Periodic cell problem: correctors and the homogenized tensor.

For a direction z the trial field is u_i = z . i^d + chi_i with chi periodic,
which turns the constrained minimization over one period into an
unconstrained positive-semidefinite solve on the quotient graph with the
graph's cached PeriodicOperator (L, b = B z, c = z^T C z); the tensor is the
d axis correctors against that one L, each found in one of three regimes
that solve._corrector_route chooses by the cell's node count n (the
crossover table is in solve_corrector):
  * dense: one product and no CG loop.  chi is linear in z, and the
    operator keeps the axis correctors X = -K^-1 B (its dense exact inverse
    applied to B, built once per graph), so chi = X z, checked by one
    residual product with L;
  * FFT, for large cells that re-tile a smaller base cell: the package's
    one CG loop (solve._preconditioned_cg), preconditioned with the FFT
    inverse of the base cell's mean-weight Bloch symbol (bloch.py), which
    keeps the step count nearly flat in T where the weights vary little;
  * plain CG: the same loop without a preconditioner.
Every solve stops once the relative residual ||L chi + b|| / ||b|| is at
most `tol`, so tol caps the residual.  The two functions that return
energies, f_hom and homogenized_tensor, also stop the FFT route at an
energy certificate: the energy error of chi with residual r is
r^T L^+ r, and L >= rho L_ref for the mean-weight reference L_ref whose
pseudo-inverse M the preconditioner applies (rho the least ratio of an
orbit's weight to its base orbit's mean weight, bloch.BaseCell), so
r^T L^+ r <= (r.Mr) / rho, which CG forms at every step.  The loop stops
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
from .solve import _corrector_route, _preconditioned_cg

CONVENTIONS = ("double", "single")
_EPS = float(np.finfo(float).eps)
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
    `error_bound` bounds the absolute error of every entry that the
    iteration leaves, factor / T^d * max_m r_m^T L^+ r_m for the axis
    residuals r_m (the entries exceed the exact ones by
    factor / T^d * R^T L^+ R, a PSD matrix): (r_m.Mr_m) / rho from the
    energy stop on the FFT route, the exact r_m^T K^-1 r_m on the dense
    route, None on the plain-CG route.  It does not cover the rounding of
    the tensor's own sums, a few sqrt(n) eps of factor / T^d * max_m C_mm.
    """

    entries: np.ndarray
    convention: str
    tolerance: float
    correctors: tuple = ()
    error_bound: float | None = None

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
    stopping rule.  PeriodicOperator.exact_inverse.dot is one whose M
    inverts L on the residuals, so the loop stops after one step;
    PeriodicOperator.preconditioner is another (bloch.py).  When None, the
    loop is plain CG, the projection its only preconditioner.
    `precondition` must leave r as it is, and may return r itself or a
    view of it: the projection makes a new array, and the loop writes to
    no array it is handed.

    With energy_tol > 0 the loop also stops once the r.Mr it forms is at
    most energy_tol (the energy stop of solve._preconditioned_cg), and the
    field's `r_Mr` is r.Mr of the residual it stops at.  With the default 0
    the stop is the residual test alone, bit for bit, and `r_Mr` is None
    (0 for b = 0).  f_hom and homogenized_tensor pass eps rho z^T C z on the
    FFT route.

    The sweep behind solve.DENSE_MAX_NODES = 160 and PCG_MIN_NODES = 256
    (solve._corrector_route): one tensor, that is the d axis correctors
    with the inverse or preconditioner built first, of the random square
    cell R(T) (n = T^2, t = 1), the two-rail strip S(P) (n = 2P, no
    sub-period) and the random cube C(6) (d = 3, n = 216), on a 2-vCPU x86
    host with one BLAS thread, in ms (median of three best-of-15 runs):

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

    The exact-inverse column timed one preconditioned CG step per axis; the
    small regime is now one cached product instead, which only widens its
    lead.  The FFT-PCG column ran the residual stop; the energy stop of the
    tensor shortens that route (R(64): 13-14 steps per axis against 18).
    The dense build grows as n^3 and plain CG as about n^(3/2) in
    d = 2, so for one tensor they meet between 160 and 190 nodes; below
    that the inverse wins by 1.7x or more even when it serves a single
    tensor.
    Below a few hundred nodes, building the FFT preconditioner and the FFT
    pair of each step cost more than the steps they save.
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

    On the dense route (solve._corrector_route) chi = X z, one product with
    the operator's cached axis correctors X, checked by one residual
    product: ||L chi - project(-B z)|| <= tol ||project(-B z)||.  A chi that
    passes reports 1 iteration (one application of the inverse) and that
    residual; one that fails is solved again by solve_corrector with the
    exact inverse as preconditioner, whose NoConvergence it raises.  A zero
    right-hand side gives exact zeros after 0 iterations.  The FFT and
    plain-CG routes run solve_corrector.  Every route returns a field with
    ||L chi + b|| <= tol ||b||: the energy stop of f_hom and
    homogenized_tensor is not taken here.  The solver, n, iterations and
    residual go to the `lattice_homog` logger at debug level.
    """
    return _corrector(graph, _check_direction(graph, z), tol)[0]


def _corrector(graph, z, tol, certify=False):
    """(corrector field, B z, L chi or None) for a checked direction z; L chi
    is the product the small-cell check has taken, None on the CG routes.
    With `certify` the FFT route also takes the energy stop
    r.Mr <= eps rho z^T C z, and the field's r_Mr / rho bounds
    r^T L^+ r, the single-count energy error of chi."""
    op = graph.operator
    b = op.B @ z
    route = _corrector_route(graph)
    fft = op.preconditioner if route == "fft" else None
    field, Lchi = _direct_corrector(op, z, b, tol) if route == "dense" else (None, None)
    if field is None:
        precondition = op.exact_inverse.dot if route == "dense" else fft
        energy_tol = _EPS * fft.rho * float(z @ op.C @ z) if certify and route == "fft" else 0.0
        field = solve_corrector(op.L, b, tol=tol, precondition=precondition,
                                energy_tol=energy_tol)
        field.direction = z
    if _log.isEnabledFor(logging.DEBUG):
        solver = ("exact-inverse" if route == "dense" else "cg" if fft is None else
                  f"fft-pcg (t={fft.t}, n0={fft.n0})")
        _log.debug("corrector: solver %s, n %d, iterations %d, residual %.3e",
                   solver, graph.n_cell, field.iterations, field.residual)
    return field, b, Lchi


def _direct_corrector(op, z, b, tol):
    """(field, L chi) of chi = X z with X the axis correctors, or (None, None)
    when chi misses the relative-residual stop of solve_corrector."""
    rhs = _project(-b)
    scale = math.sqrt(rhs @ rhs)
    if scale == 0:
        zeros = np.zeros_like(rhs)
        return CorrectorField(zeros, z, 0.0, 0), zeros
    chi = op.axis_correctors @ z
    Lchi = op.L @ chi
    r = Lchi - rhs
    residual = math.sqrt(r @ r)
    if not residual <= tol * scale:     # a NaN residual takes the CG route too
        return None, None
    return CorrectorField(chi, z, residual, 1), Lchi


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

    `tol` caps the corrector's relative residual.  On the FFT route the
    corrector also stops once r.Mr <= eps rho z^T C z, so the energy it
    leaves above the minimum is below one rounding of the single-count
    affine energy (times the convention factor over T^d); the dense and
    plain-CG routes are those of `corrector`, with no per-call work added.
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
    HomogenizedTensor): from the loop's last r.Mr on the FFT route, at no
    extra cost, and on the dense route from the cached exact inverse, one
    n x n x d product per tensor.
    """
    op = graph.operator
    factor = convention_factor(convention) / graph.T ** graph.d
    fields = tuple(_corrector(graph, e, tol, certify=True)[0] for e in np.eye(graph.d))
    X = np.column_stack([f.values for f in fields])
    BX = op.B.T @ X
    LX = op.L @ X
    A = op.C + BX + BX.T + X.T @ LX
    A = factor * 0.5 * (A + A.T)
    route = _corrector_route(graph)
    if route == "dense":
        # r_m^T K^-1 r_m, K^-1 acting as L^+ on the residuals L x_m + B_m - mean;
        # B = 0 leaves exact zeros, and no inverse is built for them
        R = LX + op.B - op.B.sum(axis=0) / graph.n_cell
        errors = np.einsum("im,im->m", R, op.exact_inverse @ R) if R.any() else 0.0
    elif route == "fft":
        errors = np.array([f.r_Mr for f in fields]) / op.preconditioner.rho
    else:
        return HomogenizedTensor(A, convention, tol, fields)
    error_bound = factor * float(np.max(errors, initial=0.0))
    return HomogenizedTensor(A, convention, tol, fields, error_bound)
