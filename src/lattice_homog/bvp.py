"""Discrete Dirichlet problems on scaled lattices and their continuum limits.

Boundary data are imposed on a band of lattice width r around the complement
of the box domain, each constrained vertex carrying the average of the datum
over its scaled unit cell.  Energies use the scaling eps^(d-2) and count
ordered pairs, matching the homogenized tensor's double convention.  The
vertices and edges come from the shared box enumerator (graph.position_box)
and the minimizer from the shared pinned-vertex solve (graph.pinned_solve).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from .cell import homogenized_tensor
from .coarse import LatticeFunction, coarse_field, hypothesis_norms
from .errors import DatumUndefined, EmptyInterior, UnsupportedDimension
from .graph import edge_energy, laplacian, pinned_solve, position_box
from .util import parallel_map

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)


class BoundaryDatum:
    """A boundary datum given as a callable on R^d points."""

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

    def cell_average(self, eps, pos):
        """Average over the scaled unit cell eps*pos + [0, eps)^d.

        Tensor-product 8-point Gauss quadrature per axis: exact for
        polynomials up to degree 15 per variable, in particular for affine
        data.
        """
        eps = float(eps)
        d = len(pos)
        base = [eps * p for p in pos]
        nodes1 = 0.5 * (_GAUSS_NODES + 1.0)          # map to [0, 1]
        w1 = 0.5 * _GAUSS_WEIGHTS
        total = 0.0
        for idx in product(range(len(nodes1)), repeat=d):
            x = [base[m] + eps * nodes1[idx[m]] for m in range(d)]
            w = 1.0
            for m in range(d):
                w *= w1[idx[m]]
            total += w * self(x)
        return total


def affine_datum(constant, gradient):
    g = np.asarray(gradient, dtype=float)
    return BoundaryDatum(lambda x: constant + float(g @ np.asarray(x, dtype=float)),
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


@dataclass
class DirichletSystem:
    problem: DirichletProblem
    positions: np.ndarray
    node_ids: np.ndarray
    constrained: np.ndarray     # bool mask
    boundary_values: np.ndarray
    edges: np.ndarray           # (E, 2) vertex pairs, one row per orbit instance
    weights: np.ndarray         # (E,)


def build_system(problem):
    """Vertices of eps*X inside the closed box, edges, constraint data.

    A vertex is constrained when its open r-neighbourhood (in scaled units)
    meets the complement of the domain; its value is the cell average of the
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
    constrained = np.any((positions - problem.r < lo) | (positions + problem.r > hi), axis=1)
    if constrained.all():
        raise EmptyInterior("every vertex is constrained")
    if not constrained.any():
        raise EmptyInterior("no vertex is constrained; the problem is singular")
    # the datum is a scalar callable: one cell average per distinct band position
    band, slot = np.unique(positions[constrained], axis=0, return_inverse=True)
    averages = np.array([problem.phi.cell_average(problem.eps, p) for p in band], dtype=float)
    values = np.zeros(len(positions))
    values[constrained] = averages[slot.reshape(-1)]
    return DirichletSystem(problem, positions, node_ids, constrained, values, edges, weights)


def discretize_boundary_datum(phi, eps, graph, omega, r=0):
    """Constrained vertex values: cell averages of the datum over eps-cells.

    Returns {position tuple: value} for every vertex whose open r-band meets
    the complement of the domain.
    """
    system = build_system(DirichletProblem(graph, omega, eps, phi, r=r))
    return {tuple(pos): float(v)
            for pos, c, v in zip(system.positions, system.constrained,
                                 system.boundary_values) if c}


def solve_dirichlet(problem):
    """Minimize sum eps^(d-2) a_ij (u_i - u_j)^2 over the constrained class.

    Returns the minimizer as a LatticeFunction together with the minimum
    (ordered-pair counting).
    """
    system = build_system(problem)
    g = problem.graph
    eps = float(problem.eps)
    coef = 2.0 * eps ** (g.d - 2) * system.weights     # ordered pairs
    L = laplacian(len(system.positions), system.edges, coef)
    values = pinned_solve(L, system.constrained, system.boundary_values)
    fn = LatticeFunction(g, system.positions, system.node_ids, values, eps)
    fn.constrained = system.constrained
    return fn, edge_energy(system.edges, coef, values)


# ---------------------------------------------------------------------------
# continuum reference


@dataclass
class ContinuumSolution:
    energy: float
    minimizer: object           # callable on points
    error_estimate: float
    h: float


def continuum_reference(tensor, omega, phi, h=None):
    """Minimum of the constant-coefficient continuum energy on a box.

    d = 1 is exact (affine minimizer); d = 2 uses a finite-difference solve
    at steps h and h/2 with Richardson extrapolation of the energy.  The
    tensor is taken in the same counting convention as the discrete energies
    being compared.
    """
    A = tensor.entries if hasattr(tensor, "entries") else np.asarray(tensor, float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    d = A.shape[0]
    omega = tuple((float(a), float(b)) for a, b in omega)
    if d == 1:
        (a, b), = omega
        ua, ub = phi([a]), phi([b])
        slope = (ub - ua) / (b - a)
        energy = float(A[0, 0]) * slope * slope * (b - a)
        minimizer = lambda x: ua + slope * (float(np.asarray(x).reshape(-1)[0]) - a)
        return ContinuumSolution(energy, minimizer, 0.0, 0.0)
    if d != 2:
        raise UnsupportedDimension("continuum reference implemented for d in {1, 2}")

    if h is None:
        h = min(b - a for a, b in omega) / 32.0
    e_coarse, _ = _fd_solve(A, omega, phi, h)
    e_fine, interp = _fd_solve(A, omega, phi, h / 2.0)
    energy = e_fine + (e_fine - e_coarse) / 3.0
    return ContinuumSolution(energy, interp, abs(e_fine - e_coarse) / 3.0, h / 2.0)


def _fd_solve(A, omega, phi, h):
    (ax, bx), (ay, by) = omega
    nx = max(2, round((bx - ax) / h))
    ny = max(2, round((by - ay) / h))
    hx = (bx - ax) / nx
    hy = (by - ay) / ny
    xs = np.linspace(ax, bx, nx + 1)
    ys = np.linspace(ay, by, ny + 1)
    u = np.zeros((nx + 1, ny + 1))
    for i in (0, nx):
        for j in range(ny + 1):
            u[i, j] = phi([xs[i], ys[j]])
    for j in (0, ny):
        for i in range(nx + 1):
            u[i, j] = phi([xs[i], ys[j]])

    # the 9-point stencil as a grid graph: axis neighbours and both diagonals
    cxx = A[0, 0] / hx ** 2
    cyy = A[1, 1] / hy ** 2
    cxy = 2.0 * A[0, 1] / (4.0 * hx * hy)
    index = np.arange(u.size).reshape(u.shape)
    ends, coef = [], []
    for (di, dj), c in (((1, 0), cxx), ((0, 1), cyy), ((1, 1), cxy), ((1, -1), -cxy)):
        a = index[:nx + 1 - di, max(-dj, 0):ny + 1 - max(dj, 0)]
        b = index[di:, max(dj, 0):ny + 1 - max(-dj, 0)]
        ends.append(np.column_stack([a.ravel(), b.ravel()]))
        coef.append(np.full(a.size, c))
    boundary = np.ones(u.shape, dtype=bool)
    boundary[1:-1, 1:-1] = False
    u = pinned_solve(laplacian(u.size, np.concatenate(ends), np.concatenate(coef)),
                     boundary.ravel(), u.ravel()).reshape(u.shape)

    # energy by midpoint quadrature of A grad u . grad u on grid cells
    gx = (u[1:, :-1] + u[1:, 1:] - u[:-1, :-1] - u[:-1, 1:]) / (2.0 * hx)
    gy = (u[:-1, 1:] + u[1:, 1:] - u[:-1, :-1] - u[1:, :-1]) / (2.0 * hy)
    dens = A[0, 0] * gx ** 2 + 2.0 * A[0, 1] * gx * gy + A[1, 1] * gy ** 2
    energy = float(dens.sum() * hx * hy)

    def interp(x):
        px = min(max((float(x[0]) - ax) / hx, 0.0), nx - 1e-12)
        py = min(max((float(x[1]) - ay) / hy, 0.0), ny - 1e-12)
        i, j = int(px), int(py)
        tx, ty = px - i, py - j
        return float((1 - tx) * (1 - ty) * u[i, j] + tx * (1 - ty) * u[i + 1, j]
                     + (1 - tx) * ty * u[i, j + 1] + tx * ty * u[i + 1, j + 1])

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
    index set).
    """
    g = u.graph
    eps = float(u.scale)
    vol = (eps * g.T) ** g.d
    cf = coarse_field(u, [(float(a), float(b)) for a, b in omega])
    total = 0.0
    for cell, mean in cf.means.items():
        center = [eps * (c * g.T + g.T / 2.0) for c in cell]
        diff = mean - minimizer(center)
        total += vol * diff * diff
    return math.sqrt(total)


def epsilon_convergence_study(graph, omega, phi, eps_list, r=0, tensor=None):
    """Discrete minima along an eps refinement vs. the continuum minimum."""
    eps_list = [Fraction(e) for e in eps_list]
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if tensor is None:
        tensor = homogenized_tensor(graph, convention="double")
    omega_f = tuple((Fraction(a), Fraction(b)) for a, b in omega)
    cont = continuum_reference(tensor, omega_f, phi,
                               h=float(min(eps_list)) / 2.0 if graph.d == 2 else None)
    result = StudyResult([], tensor, cont)

    def run(eps):
        t0 = time.perf_counter()
        problem = DirichletProblem(graph, omega_f, eps, phi, r=r)
        u, energy = solve_dirichlet(problem)
        seconds = time.perf_counter() - t0
        err = l2_error_against(u, omega_f, cont.minimizer)
        norms = hypothesis_norms(u, [(float(a), float(b)) for a, b in omega_f])
        return StudyRow(eps, energy, cont.energy, err, seconds), norms

    for row, norms in parallel_map(run, eps_list):
        result.rows.append(row)
        result.norms.append(norms)
    return result
