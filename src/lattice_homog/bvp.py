"""Discrete Dirichlet problems on scaled lattices and their continuum limits.

Boundary data are imposed on a band of lattice width r around the complement
of the box domain, each constrained vertex carrying the average of the datum
over its scaled unit cell.  Energies use the scaling eps^(d-2) and count
ordered pairs, matching the homogenized tensor's double convention.  The
vertices and edges come from the shared box enumerator (graph.position_box),
and the problem is a graph.PinnedProblem with band r.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from .cell import homogenized_tensor
from .coarse import LatticeFunction, _cell_means, hypothesis_norms
from .errors import DatumUndefined, EmptyInterior, InvalidTensor, UnsupportedDimension
from .graph import PinnedProblem, inside, position_box
from .solve import _CG_TOL, _preconditioned_cg, _sine_basis, _sine_solve
from .util import parallel_map

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)
_log = logging.getLogger("lattice_homog")


def _gauss_points(eps, positions):
    """Gauss points (d, N, 8^d) of the cells eps*pos + [0, eps)^d, N positions,
    points in itertools.product order, and their weights (8^d,).

    Tensor-product 8-point Gauss quadrature per axis: exact for polynomials
    up to degree 15 per variable, in particular for affine data.
    """
    eps = float(eps)
    base = eps * np.asarray(positions)                  # (N, d)
    idx = np.array(list(product(range(len(_GAUSS_NODES)), repeat=base.shape[1])))
    nodes1 = 0.5 * (_GAUSS_NODES + 1.0)                 # map to [0, 1]
    w1 = 0.5 * _GAUSS_WEIGHTS
    points = base.T[:, :, None] + eps * nodes1[idx.T][:, None, :]
    weights = np.ones(len(idx))
    for m in range(base.shape[1]):
        weights = weights * w1[idx[:, m]]
    return points, weights


class BoundaryDatum:
    """A boundary datum given as a callable on R^d points.

    `fn` is called with one point, a (d,) array.  `evaluate` and
    `cell_averages` first try one call on a (d, M) array of M points,
    under np.errstate(all="ignore").  The batch is used only if it returns
    M finite floats whose first entry equals the call at the first point;
    otherwise (an exception, another shape, a non-finite value, a
    different first value) the datum is called point by point, in the same
    order, so a DatumUndefined names the same point.  A callable written
    with elementwise numpy operations, such as `affine_datum`, batches; a
    scalar-only one, such as `cli.parse_datum`, is called point by point.  The
    batch gives the scalar values bit for bit when `fn` rounds each point
    as it does alone, as elementwise +, -, * and / do; numpy's array `**`
    can differ from its scalar power in the last bit, and so can a SIMD
    build of its transcendental functions.
    """

    def __init__(self, fn, name="datum"):
        self.fn = fn
        self.name = name

    def __call__(self, x):
        try:
            v = float(self.fn(np.asarray(x, dtype=float)))
        except Exception as exc:
            raise DatumUndefined(f"{self.name} failed at {x}: {exc}") from exc
        if not math.isfinite(v):
            raise DatumUndefined(f"{self.name} is not finite at {x}")
        return v

    def evaluate(self, points):
        """The datum at each column of `points` (d, M), M >= 1."""
        points = np.asarray(points, dtype=float)
        try:
            with np.errstate(all="ignore"):
                values = np.asarray(self.fn(points))
        except Exception:       # no batch; the scalar calls below report any fault
            values = None
        if (values is not None and values.shape == points.shape[1:]
                and values.dtype.kind == "f" and np.isfinite(values).all()
                and values[0] == self(list(points[:, 0]))):
            return np.asarray(values, dtype=float)
        return np.array([self(list(x)) for x in points.T])

    def cell_average(self, eps, pos):
        """Average over the scaled unit cell eps*pos + [0, eps)^d, by scalar calls."""
        points, weights = _gauss_points(eps, [pos])
        total = 0.0
        for x, w in zip(points[:, 0].T, weights):
            total += w * self(list(x))
        return total

    def cell_averages(self, eps, positions):
        """`cell_average` at each row of `positions` (N, d), N >= 1, from one
        `evaluate` call.  The weighted values are summed per Gauss point in
        product order, so an average equals cell_average's bit for bit
        whenever the datum's values do (see the class docstring)."""
        points, weights = _gauss_points(eps, positions)
        values = self.evaluate(points.reshape(len(points), -1)).reshape(points.shape[1:])
        total = np.zeros(len(values))
        for column, w in zip(values.T, weights):      # running sum in product order
            total += w * column
        return total


def affine_datum(constant, gradient):
    """constant + gradient . x, elementwise, so one point and a batch alike;
    a gradient of another length than x raises."""
    g = np.asarray(gradient, dtype=float)
    return BoundaryDatum(lambda x: constant + sum(a * b for a, b in zip(g, x, strict=True)),
                         name=f"affine({constant}, {list(g)})")


@dataclass
class DirichletProblem:
    """Quadratic Dirichlet problem on the part of eps*X inside a box domain."""

    graph: object
    omega: tuple                # ((a, b), ...) per axis, Fractions or ints
    eps: Fraction
    phi: BoundaryDatum
    r: int = 0                  # boundary-band width in lattice units; 0 -> T

    def __post_init__(self):
        self.eps = Fraction(self.eps)
        self.omega = tuple((Fraction(a), Fraction(b)) for a, b in self.omega)
        if len(self.omega) != self.graph.d:
            raise ValueError("omega arity != d")
        if any(b <= a for a, b in self.omega):
            raise ValueError("omega must have positive extent per axis")
        inv = 1 / self.eps
        if inv.denominator != 1 or inv.numerator % self.graph.T != 0:
            raise ValueError(f"1/eps must be an integer multiple of T={self.graph.T}")
        if self.r <= 0:
            self.r = self.graph.T


def build_system(problem):
    """The PinnedProblem of eps*X inside the closed box, coef 2 eps^(d-2) w.

    A vertex is pinned when its open r-neighbourhood (in scaled units) meets
    the complement of the domain; its value is the cell average of the
    datum.  Raises EmptyInterior when no vertex is left free.
    """
    g = problem.graph
    inv = int(1 / problem.eps)
    # exact integer bounds: i with a <= eps*i <= b
    lo = np.array([math.ceil(a * inv) for a, _ in problem.omega])
    hi = np.array([math.floor(b * inv) for _, b in problem.omega])
    positions, node_ids, edges, weights = position_box(g, lo, hi)
    if not len(positions):
        raise EmptyInterior("domain contains no lattice vertex")
    # for integer p: p - r < a/eps iff p - r < lo, and p + r > b/eps iff p + r > hi
    pinned = ~inside(positions, lo + problem.r, hi - problem.r)
    if pinned.all():
        raise EmptyInterior("every vertex is constrained")
    if not pinned.any():
        raise EmptyInterior("no vertex is constrained; the problem is singular")
    # one cell average per distinct band position, in lexicographic order:
    # the positions' row-major keys in the box ascend as the positions do
    band = positions.compress(pinned, axis=0)
    key = np.ravel_multi_index((band - lo).T, hi - lo + 1)
    _, first, slot = np.unique(key, return_index=True, return_inverse=True)
    averages = problem.phi.cell_averages(problem.eps, band[first])
    values = np.zeros(len(positions))
    values[pinned] = averages[slot]
    coef = 2.0 * float(problem.eps) ** (g.d - 2) * weights     # ordered pairs
    return PinnedProblem(positions, node_ids, edges, coef, pinned, values)


def discretize_boundary_datum(phi, eps, graph, omega, r=0):
    """Constrained vertex values: cell averages of the datum over eps-cells.

    Returns {position tuple: value} for every vertex whose open r-band meets
    the complement of the domain.
    """
    system = build_system(DirichletProblem(graph, omega, eps, phi, r=r))
    return {tuple(pos): float(v)
            for pos, c, v in zip(system.positions, system.pinned, system.values) if c}


def solve_dirichlet(problem):
    """Minimize sum eps^(d-2) a_ij (u_i - u_j)^2 over the constrained class.

    Returns the minimizer as a LatticeFunction together with the minimum
    (ordered-pair counting).
    """
    system = build_system(problem)
    values = system.solve()
    fn = LatticeFunction(problem.graph, system.positions, system.node_ids, values,
                         float(problem.eps))
    fn.constrained = system.pinned
    return fn, system.energy(values)


# ---------------------------------------------------------------------------
# continuum reference


@dataclass
class ContinuumSolution:
    """The continuum minimum and its minimizer.  `minimizer` takes one point
    (d,), giving a float, or a (d, M) array of M points, giving an (M,)
    array whose entries equal the single-point calls bit for bit."""

    energy: float
    minimizer: object
    error_estimate: float
    h: float


def continuum_reference(tensor, omega, phi, h=None):
    """Minimum of the constant-coefficient continuum energy on a box.

    d = 1 is exact (affine minimizer); d = 2 uses a finite-difference solve
    at steps h and h/2 with Richardson extrapolation of the energy.  The
    tensor is taken in the same counting convention as the discrete energies
    being compared; one that is not finite, symmetric and positive definite
    raises InvalidTensor before anything is solved.
    """
    A = tensor.entries if hasattr(tensor, "entries") else np.asarray(tensor, float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    _check_tensor(A)
    d = A.shape[0]
    omega = tuple((float(a), float(b)) for a, b in omega)
    if d == 1:
        (a, b), = omega
        ua, ub = phi([a]), phi([b])
        slope = (ub - ua) / (b - a)
        energy = float(A[0, 0]) * slope * slope * (b - a)

        def minimizer(x):
            x = np.asarray(x, dtype=float)
            value = ua + slope * ((x[0] if x.ndim else x) - a)
            return float(value) if np.ndim(value) == 0 else value

        return ContinuumSolution(energy, minimizer, 0.0, 0.0)
    if d != 2:
        raise UnsupportedDimension("continuum reference implemented for d in {1, 2}")

    if h is None:
        h = min(b - a for a, b in omega) / 32.0
    e_coarse, _ = _fd_solve(A, omega, phi, h)
    e_fine, interp = _fd_solve(A, omega, phi, h / 2.0)
    energy = e_fine + (e_fine - e_coarse) / 3.0
    return ContinuumSolution(energy, interp, abs(e_fine - e_coarse) / 3.0, h / 2.0)


def _check_tensor(A):
    """Raise InvalidTensor unless A is a finite symmetric positive definite matrix."""
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidTensor(f"tensor of shape {A.shape} is not square")
    if not np.isfinite(A).all() or not np.array_equal(A, A.T):
        raise InvalidTensor(f"tensor {A.tolist()} is not finite or not symmetric")
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise InvalidTensor(f"tensor {A.tolist()} is not positive definite") from None


def _fd_solve(A, omega, phi, h):
    """(energy, interpolant) of the 9-point finite-difference minimizer at step h.

    The grid graph joins axis neighbours with cxx = A00/hx^2 and
    cyy = A11/hy^2 and the two diagonals with +-cxy = +-A01/(2 hx hy); the
    boundary carries the datum.  The interior is solved matrix-free by
    conjugate gradients preconditioned with the exact inverse of the axis
    part M, two sine transforms as dense products (solve._sine_solve, the
    preconditioner of the sine pinned route too), to a backward error of
    _CG_TOL (solve._preconditioned_cg, the stop of the CG pinned routes
    too).  CG starts from the transfinite (Coons) interpolant of the
    boundary values (Gordon & Hall, Numer. Math. 21, 1973), which
    reproduces every datum f(x) + g(y): an affine datum, whose minimizer it
    is, takes no step.  The mixed part is at most rho = |A01| / sqrt(A00 A11)
    < 1 times the axis part, so the preconditioned condition number kappa
    is at most (1 + rho) / (1 - rho) at every h (Concus & Golub, SIAM J.
    Numer. Anal. 10, 1973).  On the unit square that is 9-10 steps for the
    L2 tensor from h = 1/32 to 1/256, and 44-64 at rho = 0.95, rising
    towards its ceiling as h shrinks; a diagonal tensor takes one step at
    every h.
    Reaching the cap raises NoConvergence with the backward error.  The
    grid shape, steps and backward error go to the `lattice_homog` logger
    at debug level.  The interpolant is bilinear on the grid cell of each
    point, the point clamped to the box; it takes one point or a (2, M)
    array of points with the same arithmetic per point.
    """
    (ax, bx), (ay, by) = omega
    nx = max(2, round((bx - ax) / h))
    ny = max(2, round((by - ay) / h))
    hx = (bx - ax) / nx
    hy = (by - ay) / ny
    xs = np.linspace(ax, bx, nx + 1)
    ys = np.linspace(ay, by, ny + 1)
    u = np.zeros((nx + 1, ny + 1))
    # columns x = ax, bx, then rows y = ay, by (corners twice): the order in
    # which a datum undefined on the boundary is reported
    rows, cols = np.arange(nx + 1), np.arange(ny + 1)
    i = np.concatenate([np.zeros_like(cols), np.full_like(cols, nx), rows, rows])
    j = np.concatenate([cols, cols, np.zeros_like(rows), np.full_like(rows, ny)])
    u[i, j] = phi.evaluate(np.array([xs[i], ys[j]]))

    cxx = A[0, 0] / hx ** 2
    cyy = A[1, 1] / hy ** 2
    cxy = 2.0 * A[0, 1] / (4.0 * hx * hy)
    rho = abs(A[0, 1]) / math.sqrt(A[0, 0] * A[1, 1])

    def stencil(p):
        """L p on the interior, p a padded grid: the 9-point stencil."""
        return (2.0 * (cxx + cyy) * p[1:-1, 1:-1] - cxx * (p[:-2, 1:-1] + p[2:, 1:-1])
                - cyy * (p[1:-1, :-2] + p[1:-1, 2:])
                - cxy * (p[:-2, :-2] + p[2:, 2:] - p[2:, :-2] - p[:-2, 2:]))

    padded = np.zeros_like(u)

    def apply(x):
        padded[1:-1, 1:-1] = x
        return stencil(padded)

    Sx, mx = _sine_basis(nx)
    Sy, my = (Sx, mx) if ny == nx else _sine_basis(ny)     # a square grid builds one
    axis = cxx * mx[:, None] + cyy * my[None, :]
    precondition = lambda r: _sine_solve((Sx, Sy), axis, r)

    b = -stencil(u)                     # the boundary's pull; the interior is 0
    # the Coons start: the boundary columns and rows blended linearly, less
    # the bilinear blend of the corners they both count
    s = np.linspace(0.0, 1.0, nx + 1)[1:-1, None]
    t = np.linspace(0.0, 1.0, ny + 1)[None, 1:-1]
    start = ((1.0 - s) * u[:1, 1:-1] + s * u[-1:, 1:-1] + (1.0 - t) * u[1:-1, :1]
             + t * u[1:-1, -1:] - ((1.0 - s) * ((1.0 - t) * u[0, 0] + t * u[0, -1])
                                   + s * ((1.0 - t) * u[-1, 0] + t * u[-1, -1])))
    # in exact arithmetic ||r_k|| <= 2 sqrt(kappa cond(M)) q^k ||b||, so CG
    # reaches _CG_TOL ||b||, and with it the backward-error test, within
    # `bound` steps (14, 29 and 122 at h = 1/128 for rho = 0.12, 0.5 and
    # 0.95); the cap doubles it and adds 10 for rounding
    kappa = (1.0 + rho) / (1.0 - rho)
    q = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    bound = 1 if q == 0 else math.ceil(
        math.log(2.0 * math.sqrt(kappa * axis.max() / axis.min()) / _CG_TOL) / -math.log(q))
    # ||L||_inf, the largest absolute row sum of the stencil
    norm = 4.0 * (cxx + cyy + abs(cxy))
    x, it, backward, _ = _preconditioned_cg(apply, b, precondition, norm, _CG_TOL,
                                            2 * bound + 10, "continuum grid CG", start)
    _log.debug("continuum grid: shape %dx%d, iterations %d, backward error %.3e",
               nx + 1, ny + 1, it, backward)
    u[1:-1, 1:-1] = x

    # energy by midpoint quadrature of A grad u . grad u on grid cells
    gx = (u[1:, :-1] + u[1:, 1:] - u[:-1, :-1] - u[:-1, 1:]) / (2.0 * hx)
    gy = (u[:-1, 1:] + u[1:, 1:] - u[:-1, :-1] - u[1:, :-1]) / (2.0 * hy)
    dens = A[0, 0] * gx ** 2 + 2.0 * A[0, 1] * gx * gy + A[1, 1] * gy ** 2
    energy = float(dens.sum() * hx * hy)

    def interp(x):
        x = np.asarray(x, dtype=float)
        px = np.minimum(np.maximum((x[0] - ax) / hx, 0.0), nx - 1e-12)
        py = np.minimum(np.maximum((x[1] - ay) / hy, 0.0), ny - 1e-12)
        i, j = px.astype(np.intp), py.astype(np.intp)
        tx, ty = px - i, py - j
        value = ((1 - tx) * (1 - ty) * u[i, j] + tx * (1 - ty) * u[i + 1, j]
                 + (1 - tx) * ty * u[i, j + 1] + tx * ty * u[i + 1, j + 1])
        return float(value) if value.ndim == 0 else value

    return energy, interp


# ---------------------------------------------------------------------------
# refinement studies


@dataclass
class StudyRow:
    eps: Fraction
    discrete_energy: float
    continuum_energy: float
    l2_error: float
    seconds: float

    def to_dict(self):
        return {"eps": str(self.eps), "discrete_energy": self.discrete_energy,
                "continuum_energy": self.continuum_energy,
                "l2_error": self.l2_error, "seconds": self.seconds}


@dataclass
class StudyResult:
    rows: list
    tensor: object
    continuum: ContinuumSolution
    norms: list = field(default_factory=list)   # (l2, grad) per row


def l2_error_against(u, omega, minimizer):
    """L2 distance of the coarse field to a continuum function at cell centers.

    Uses every full cell inside the open domain (the coarse field's own
    index set).  `minimizer` is evaluated as a BoundaryDatum is: one call on
    the (d, M) array of the M cell centres, which ContinuumSolution.minimizer
    takes, and point by point for a callable that does not batch.  The
    squared differences are summed over the cells in order, as a loop over
    the cells would sum them.
    """
    g = u.graph
    eps = float(u.scale)
    vol = (eps * g.T) ** g.d
    cells, means = _cell_means(u, [(float(a), float(b)) for a, b in omega])
    if not len(cells):
        return 0.0
    centers = eps * (cells * g.T + g.T / 2.0)
    diff = means - BoundaryDatum(minimizer, name="minimizer").evaluate(centers.T)
    return math.sqrt(float(np.cumsum(vol * diff * diff)[-1]))


def epsilon_convergence_study(graph, omega, phi, eps_list, r=0):
    """Discrete minima along an eps refinement vs. the continuum minimum.

    Each row's eps, vertex count and free dofs, and the seconds of its solve,
    L2 error and norms, go to the `lattice_homog` logger at debug level.
    """
    eps_list = [Fraction(e) for e in eps_list]
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    tensor = homogenized_tensor(graph, convention="double")
    omega_f = tuple((Fraction(a), Fraction(b)) for a, b in omega)
    cont = continuum_reference(tensor, omega_f, phi,
                               h=float(min(eps_list)) / 2.0 if graph.d == 2 else None)
    result = StudyResult([], tensor, cont)

    def run(eps):
        t0 = time.perf_counter()
        problem = DirichletProblem(graph, omega_f, eps, phi, r=r)
        u, energy = solve_dirichlet(problem)
        t1 = time.perf_counter()
        err = l2_error_against(u, omega_f, cont.minimizer)
        t2 = time.perf_counter()
        norms = hypothesis_norms(u, [(float(a), float(b)) for a, b in omega_f])
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("dirichlet study: eps %s, vertices %d, free dofs %d, seconds: "
                       "solve %.4f, L2 error %.4f, norms %.4f", eps, len(u.values),
                       np.count_nonzero(~u.constrained), t1 - t0, t2 - t1,
                       time.perf_counter() - t2)
        return StudyRow(eps, energy, cont.energy, err, t1 - t0), norms

    for row, norms in parallel_map(run, eps_list):
        result.rows.append(row)
        result.norms.append(norms)
    return result
