import logging
import math
import re
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from lattice_homog import bvp, cli
from lattice_homog import (
    DatumUndefined,
    EmptyInterior,
    InvalidTensor,
    NoConvergence,
    UnsupportedDimension,
    graph_from_edges,
    homogenized_tensor,
)
from lattice_homog.bvp import (
    BoundaryDatum,
    DirichletProblem,
    affine_datum,
    build_system,
    continuum_reference,
    discretize_boundary_datum,
    epsilon_convergence_study,
    l2_error_against,
    solve_dirichlet,
    _fd_solve,
)
from lattice_homog.graph import PinnedProblem
from lattice_homog.solve import _CG_TOL as GRID_TOL, _preconditioned_cg

import pinned_reference
from conftest import layered_square_lattice, square_lattice

X = BoundaryDatum(lambda x: x[0], name="x")
EPS_LIST = [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16), Fraction(1, 32)]


# ---------------------------------------------------------------------------
# boundary data


def test_cell_average_constant():
    phi = affine_datum(3.0, [0.0])
    assert phi.cell_average(Fraction(1, 8), (5,)) == pytest.approx(3.0, abs=1e-14)


def test_cell_average_affine_exact():
    phi = affine_datum(0.0, [1.0])
    eps = Fraction(1, 8)
    for i in (-3, 0, 7):
        want = float(eps) * i + float(eps) / 2.0
        assert phi.cell_average(eps, (i,)) == pytest.approx(want, abs=1e-15)


def test_cell_average_quadratic():
    phi = BoundaryDatum(lambda x: x[0] ** 2)
    got = phi.cell_average(Fraction(1, 8), (0,))
    assert abs(got - 1.0 / 192.0) < 1e-12


def test_cell_average_two_dimensional():
    phi = BoundaryDatum(lambda x: x[0] * x[1])
    got = phi.cell_average(Fraction(1, 2), (0, 0))
    assert abs(got - 1.0 / 16.0) < 1e-14  # (eps/2)^2 with eps = 1/2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_datum_undefined():
    phi = BoundaryDatum(lambda x: 1.0 / x[0])
    with pytest.raises(DatumUndefined):
        phi([0.0])
    nanny = BoundaryDatum(lambda x: float("nan"))
    with pytest.raises(DatumUndefined):
        nanny([0.0])


LOG_FAILED_AT = ("log(x - 0.3) {} [np.float64(0.0012409419844519945), "
                 "np.float64(0.0012409419844519945)]")


def test_datum_undefined_on_band_names_first_point():
    # undefined for x < 0.3: the first band position's first Gauss point is named
    phi = BoundaryDatum(lambda x: np.log(x[0] - 0.3), name="log(x - 0.3)")
    problem = DirichletProblem(layered_square_lattice(), ((0, 1), (0, 1)), Fraction(1, 16), phi)
    with pytest.raises(DatumUndefined) as info:
        build_system(problem)       # RuntimeWarning is an error under pytest's settings
    assert str(info.value) == (LOG_FAILED_AT.format("failed at")
                               + ": invalid value encountered in log")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DatumUndefined) as info:
            build_system(problem)
    assert str(info.value) == LOG_FAILED_AT.format("is not finite at")


def scalar_loop_values(problem, system):
    """Boundary values of build_system(problem) by the scalar per-position
    loop: 8^d calls of the datum per band vertex, axis weights multiplied and
    summed in itertools.product order."""
    phi, eps = problem.phi, float(problem.eps)
    nodes, weights = np.polynomial.legendre.leggauss(8)
    nodes1, w1 = 0.5 * (nodes + 1.0), 0.5 * weights
    values = np.zeros(len(system.positions))
    for i in np.flatnonzero(system.pinned):
        pos = system.positions[i]
        total = 0.0
        for idx in product(range(8), repeat=len(pos)):
            x = [eps * pos[m] + eps * nodes1[idx[m]] for m in range(len(pos))]
            w = 1.0
            for m in range(len(pos)):
                w *= w1[idx[m]]
            total += w * phi(x)
        values[i] = total
    return values


QUADRATIC = BoundaryDatum(lambda x: x[0] * x[0] - x[1], name="x*x - y")
SINE = BoundaryDatum(lambda x: np.sin(3 * x[0]), name="sin(3x)")


@pytest.mark.parametrize("case", [
    ("L2", QUADRATIC, "1/4"), ("L2", QUADRATIC, "1/8"), ("L2", QUADRATIC, "1/16"),
    ("L2", QUADRATIC, "1/64"),
    ("ex5", SINE, "1/32"),
    ("L2", cli.parse_datum("x*x - y", 2), "1/16"),            # scalar-only callable
    ("L2", BoundaryDatum(lambda x: max(x[0], x[1])), "1/16"),  # raises on arrays
    ("L2", BoundaryDatum(lambda x: np.sum(x)), "1/16"),        # one number for a batch
    ("L2", BoundaryDatum(lambda x: x[0] * 0 + x.size), "1/16"),  # right shape, wrong values
], ids=lambda case: f"{case[0]}-{case[1].name}-{case[2]}")
def test_boundary_values_match_scalar_loop(examples, case):
    name, phi, eps = case
    graph = layered_square_lattice() if name == "L2" else examples[name]
    problem = DirichletProblem(graph, ((0, 1),) * graph.d, Fraction(eps), phi)
    system = build_system(problem)
    want = scalar_loop_values(problem, system)
    assert np.array_equal(system.values, want)
    assert np.array_equal(np.signbit(system.values), np.signbit(want))


# ---------------------------------------------------------------------------
# problem setup


def test_eps_must_be_multiple_of_period(examples):
    with pytest.raises(ValueError, match="multiple of T"):
        DirichletProblem(examples["ex1"], ((0, 1),), Fraction(1, 5), X)
    DirichletProblem(examples["ex1"], ((0, 1),), Fraction(1, 6), X)


def test_r_defaults_to_period(examples):
    p = DirichletProblem(examples["ex1"], ((0, 1),), Fraction(1, 8), X)
    assert p.r == 2


def test_constrained_band(chain):
    p = DirichletProblem(chain, ((0, 1),), Fraction(1, 8), X)
    system = build_system(p)
    cons = {int(pos[0]) for pos, c in zip(system.positions, system.pinned) if c}
    assert cons == {0, 8}
    p2 = DirichletProblem(chain, ((0, 1),), Fraction(1, 8), X, r=3)
    cons2 = {int(pos[0]) for pos, c
             in zip(build_system(p2).positions, build_system(p2).pinned) if c}
    assert cons2 == {0, 1, 2, 6, 7, 8}


def test_empty_interior(chain):
    with pytest.raises(EmptyInterior):
        build_system(DirichletProblem(chain, ((0, 1),), Fraction(1, 2), X, r=2))


def test_discretize_boundary_datum(chain):
    vals = discretize_boundary_datum(X, Fraction(1, 8), chain, ((0, 1),))
    assert set(vals) == {(0,), (8,)}
    assert vals[(0,)] == pytest.approx(1.0 / 16.0, abs=1e-14)
    assert vals[(8,)] == pytest.approx(1.0 + 1.0 / 16.0, abs=1e-14)


# ---------------------------------------------------------------------------
# solves


def test_constant_datum_zero_energy(examples):
    phi = affine_datum(2.0, [0.0])
    p = DirichletProblem(examples["ex1"], ((0, 1),), Fraction(1, 8), phi)
    u, energy = solve_dirichlet(p)
    assert energy == pytest.approx(0.0, abs=1e-20)
    assert np.allclose(u.values, 2.0)


def test_chain_energy_exact(chain):
    for eps in EPS_LIST:
        u, energy = solve_dirichlet(DirichletProblem(chain, ((0, 1),), eps, X))
        assert abs(energy - 2.0) < 1e-10


def test_ex1_energy_exact_four(examples):
    for eps in (Fraction(1, 4), Fraction(1, 16)):
        p = DirichletProblem(examples["ex1"], ((0, 1),), eps, X)
        _, energy = solve_dirichlet(p)
        assert abs(energy - 4.0) < 1e-10


def test_comparison_principle(examples):
    phi = BoundaryDatum(lambda x: x[0] ** 2, name="x^2")
    p = DirichletProblem(examples["ex4"], ((0, 1),), Fraction(1, 16), phi)
    u, _ = solve_dirichlet(p)
    cons = u.values[u.constrained]
    free = u.values[~u.constrained]
    assert free.min() >= cons.min() - 1e-12
    assert free.max() <= cons.max() + 1e-12


def test_affine_interpolant_bounds_minimum(examples):
    g = examples["ex5"]
    eps = Fraction(1, 8)
    p = DirichletProblem(g, ((0, 1),), eps, X)
    u, energy = solve_dirichlet(p)
    system = build_system(p)
    shifted = np.array([float(eps) * pos[0] + float(eps) / 2.0
                        for pos in system.positions])
    a, b = system.ends.T     # coef is 2 eps^(d-2) w
    affine_energy = float(np.sum(system.coef * (shifted[a] - shifted[b]) ** 2))
    assert energy <= affine_energy + 1e-12


def test_dirichlet_singular_free_region():
    # a chain plus an isolated second row: the row's free vertices touch no
    # constrained vertex, so the reduced system is singular
    g = graph_from_edges(1, 1, 1, [(0, 0), (0, 1)],
                         [((0, 0), (0, 0), (1,), 1.0)])
    with pytest.raises(NoConvergence, match="size 1 .* no pinned neighbour"):
        solve_dirichlet(DirichletProblem(g, ((0, 1),), Fraction(1, 8), X))


def test_minimum_nonnegative(examples):
    phi = BoundaryDatum(lambda x: np.sin(3 * x[0]), name="sin")
    p = DirichletProblem(examples["ex6"], ((0, 1),), Fraction(1, 8), phi)
    _, energy = solve_dirichlet(p)
    assert energy >= 0


# ---------------------------------------------------------------------------
# continuum references


def test_continuum_1d_exact():
    sol = continuum_reference(np.array([[4.0]]), ((0, 1),), X)
    assert sol.energy == pytest.approx(4.0, abs=1e-14)
    assert sol.minimizer([0.25]) == pytest.approx(0.25, abs=1e-14)
    phi3 = affine_datum(0.0, [3.0])
    sol = continuum_reference(np.array([[4.0]]), ((0, 2),), phi3)
    assert sol.energy == pytest.approx(72.0, abs=1e-12)


def test_continuum_2d_harmonic_affine():
    sol = continuum_reference(np.eye(2), ((0, 1), (0, 1)), X, h=1.0 / 16)
    assert abs(sol.energy - 1.0) < 1e-10
    assert sol.error_estimate < 1e-10
    assert sol.minimizer([0.5, 0.25]) == pytest.approx(0.5, abs=1e-10)


def test_continuum_2d_off_diagonal_tensor():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    sol = continuum_reference(A, ((0, 1), (0, 1)), X, h=1.0 / 16)
    # affine datum keeps the affine minimizer; energy = A[0,0]
    assert abs(sol.energy - 2.0) < 1e-9


def test_continuum_2d_harmonic_saddle():
    phi = BoundaryDatum(lambda x: x[0] ** 2 - x[1] ** 2, name="saddle")
    sol = continuum_reference(np.eye(2), ((0, 1), (0, 1)), phi, h=1.0 / 16)
    assert abs(sol.energy - 8.0 / 3.0) < 1e-3
    assert abs(sol.energy - 8.0 / 3.0) <= sol.error_estimate + 1e-9
    assert sol.minimizer([0.5, 0.25]) == pytest.approx(0.1875, abs=1e-6)


def test_batched_datum_is_one_array_call():
    calls = []

    def fn(x):
        calls.append(np.shape(x))
        return x[0] * x[0] - x[1]

    system = build_system(DirichletProblem(layered_square_lattice(), ((0, 1), (0, 1)),
                                           Fraction(1, 16), BoundaryDatum(fn)))
    band = np.unique(system.positions[system.pinned], axis=0)
    # the batch, then the scalar call at its first point
    assert calls == [(2, 64 * len(band)), (2,)]


def test_affine_datum_is_one_array_call():
    phi = affine_datum(0.25, [1.0, 0.5])
    calls, fn = [], phi.fn
    phi.fn = lambda x: calls.append(np.shape(x)) or fn(x)
    problem = DirichletProblem(layered_square_lattice(), ((0, 1), (0, 1)), Fraction(1, 16), phi)
    system = build_system(problem)
    band = np.unique(system.positions[system.pinned], axis=0)
    assert calls == [(2, 64 * len(band)), (2,)]
    assert np.array_equal(system.values, scalar_loop_values(problem, system))
    for gradient in ([1.0], [1.0, 0.5, 2.0]):
        with pytest.raises(DatumUndefined):
            affine_datum(0.25, gradient)([0.5, 0.5])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cell_averages_equal_cell_average(d):
    # no `**`: numpy's array power may round differently from its scalar power
    phi = BoundaryDatum(lambda x: np.cos(x[0]) * x[-1] - x[0] * x[0] * x[0], name="mixed")
    positions = np.random.default_rng(d).integers(-40, 40, size=(7, d))
    eps = Fraction(1, 24)
    want = [phi.cell_average(eps, p) for p in positions]
    assert phi.cell_averages(eps, positions).tolist() == want
    assert phi.cell_average(eps, tuple(int(p) for p in positions[0])) == want[0]


def test_continuum_reference_same_with_scalar_only_datum():
    # float() refuses an array of points, so this copy of QUADRATIC is called point by point
    scalar_only = BoundaryDatum(lambda x: float(x[0] * x[0] - x[1]), name="x*x - y")
    A = np.array([[20 / 3, 2 / 3], [2 / 3, 14 / 3]])
    batch = continuum_reference(A, ((0, 1), (0, 1)), QUADRATIC, h=1.0 / 32)
    scalar = continuum_reference(A, ((0, 1), (0, 1)), scalar_only, h=1.0 / 32)
    assert (batch.energy, batch.error_estimate) == (scalar.energy, scalar.error_estimate)
    for point in ([0.3, 0.7], [0.0, 1.0], [0.51, 0.02]):
        assert batch.minimizer(point) == scalar.minimizer(point)


def test_minimizer_batch_matches_single_points():
    # the grid interpolant and the d = 1 affine minimizer take a (d, M) array
    # of points with the arithmetic of one point: inside the box, on its edge
    # x = b and outside it (clamped by the interpolant), a batch equals the
    # single calls bit for bit
    rng = np.random.default_rng(7)
    A = np.array([[20 / 3, 2 / 3], [2 / 3, 14 / 3]])
    cases = [(((0, 1), (0, 1)), continuum_reference(A, ((0, 1), (0, 1)), QUADRATIC, h=1 / 16)),
             (((-1, 2), (0, 0.5)), continuum_reference(A, ((-1, 2), (0, 0.5)), QUADRATIC,
                                                      h=1 / 8)),
             (((0.5, 2),), continuum_reference(np.array([[3.0]]), ((0.5, 2),),
                                               affine_datum(0.25, [1.5])))]
    for omega, sol in cases:
        lo, hi = np.array(omega, dtype=float).T
        points = rng.uniform(lo - 0.5, hi + 0.5, (64, len(lo))).T
        points[:, 0] = hi               # the far corner, x = b
        points[:, 1] = lo - 0.25        # below the box, x < a
        batch = sol.minimizer(points)
        assert isinstance(batch, np.ndarray) and batch.shape == (64,)
        single = [sol.minimizer(p) for p in points.T]
        assert all(type(v) is float for v in single)
        assert batch.tolist() == single == [sol.minimizer(p.tolist()) for p in points.T]


GRID_TENSORS = {
    "L2": np.array([[20 / 3, 2 / 3], [2 / 3, 14 / 3]]),
    "negative": np.array([[2.0, -0.7], [-0.7, 1.0]]),
    # A01 / sqrt(A00 A11) = 0.95
    "anisotropic": np.array([[1.0, 0.95 * 3 ** 0.5], [0.95 * 3 ** 0.5, 3.0]]),
    "diagonal": np.array([[2.0, 0.0], [0.0, 0.5]]),
}
SQUARE = ((0.0, 1.0), (0.0, 1.0))
WIDE = ((0.0, 2.0), (-0.5, 0.5))                 # nx = 2 ny
WAVE = BoundaryDatum(lambda x: np.sin(3 * x[0]) * np.cos(2 * x[1]) + x[0] * x[1],
                     name="sin(3x) cos(2y) + xy")


def grid_problem(A, omega, phi, h):
    """(grid points, PinnedProblem) of the 9-point stencil on the grid of
    step h as a grid graph, the boundary pinned to the datum.  The diagonal
    bonds carry +-A01 / (2 hx hy), so one of their two families has a
    negative coefficient when A01 != 0."""
    (ax, bx), (ay, by) = omega
    nx, ny = max(2, round((bx - ax) / h)), max(2, round((by - ay) / h))
    hx, hy = (bx - ax) / nx, (by - ay) / ny
    X, Y = np.meshgrid(np.linspace(ax, bx, nx + 1), np.linspace(ay, by, ny + 1),
                       indexing="ij")
    boundary = np.ones(X.shape, dtype=bool)
    boundary[1:-1, 1:-1] = False
    values = np.where(boundary, phi.evaluate(np.array([X.ravel(), Y.ravel()])).reshape(X.shape),
                      0.0)
    cxx, cyy, cxy = A[0, 0] / hx ** 2, A[1, 1] / hy ** 2, A[0, 1] / (2 * hx * hy)
    index = np.arange(X.size).reshape(X.shape)
    ends, coef = [], []
    for (di, dj), c in (((1, 0), cxx), ((0, 1), cyy), ((1, 1), cxy), ((1, -1), -cxy)):
        a = index[:nx + 1 - di, max(-dj, 0):ny + 1 - max(dj, 0)]
        b = index[di:, max(dj, 0):ny + 1 - max(-dj, 0)]
        ends.append(np.column_stack([a.ravel(), b.ravel()]))
        coef.append(np.full(a.size, c))
    positions = np.indices(X.shape).reshape(2, -1).T
    return np.stack([X, Y]), PinnedProblem(positions, np.zeros(X.size, dtype=int),
                                           np.concatenate(ends), np.concatenate(coef),
                                           boundary.ravel(), values.ravel())


def superlu_grid(A, omega, phi, h):
    """(grid values, midpoint energy) of grid_problem, reduced by the
    reference assembly and solved by SuperLU."""
    points, problem = grid_problem(A, omega, phi, h)
    (ax, bx), (ay, by) = omega
    hx, hy = (bx - ax) / (points.shape[1] - 1), (by - ay) / (points.shape[2] - 1)
    u = problem.values.copy()
    u[~problem.pinned] = pinned_reference.superlu_solve(*pinned_reference.reduced_system(problem))
    u = u.reshape(points.shape[1:])
    gx = (u[1:, :-1] + u[1:, 1:] - u[:-1, :-1] - u[:-1, 1:]) / (2 * hx)
    gy = (u[:-1, 1:] + u[1:, 1:] - u[:-1, :-1] - u[1:, :-1]) / (2 * hy)
    energy = (A[0, 0] * gx ** 2 + 2 * A[0, 1] * gx * gy + A[1, 1] * gy ** 2).sum() * hx * hy
    return points, u, float(energy)


def grid_iterations(caplog, *args):
    """(steps, grid shape) of _fd_solve(*args), read from its one debug line."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="lattice_homog"):
        _fd_solve(*args)
    message, = [r.getMessage() for r in caplog.records]
    shape, iterations, backward = re.fullmatch(
        r"continuum grid: shape (\d+x\d+), iterations (\d+), backward error (\S+)",
        message).groups()
    assert float(backward) <= 2 * GRID_TOL
    return int(iterations), shape


@pytest.mark.parametrize("name", GRID_TENSORS)
@pytest.mark.parametrize("omega, phi, h", [
    (SQUARE, QUADRATIC, 1 / 8), (SQUARE, WAVE, 1 / 32), (SQUARE, QUADRATIC, 1 / 128),
    (WIDE, WAVE, 1 / 8), (WIDE, QUADRATIC, 1 / 32)])
def test_grid_cg_matches_superlu(name, omega, phi, h):
    A = GRID_TENSORS[name]
    points, want, want_energy = superlu_grid(A, omega, phi, h)
    energy, interp = _fd_solve(A, omega, phi, h)
    got = np.array([interp(p) for p in points.reshape(2, -1).T]).reshape(want.shape)
    assert abs(energy - want_energy) <= 1e-10 * abs(want_energy)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def pcg_step_bound(A, h):
    """Steps within which PCG reaches a relative residual of GRID_TOL, and
    with it the backward-error stop, on the unit square at step h, in exact
    arithmetic: ||r_k|| <= 2 sqrt(kappa cond(M)) q^k ||r_0|| with
    q = (sqrt(kappa) - 1) / (sqrt(kappa) + 1), M the axis part and
    kappa = (1 + rho) / (1 - rho), rho = |A01| / sqrt(A00 A11) (Concus &
    Golub).  It grows only as log(cond(M)), that is as log(1/h)."""
    rho = abs(A[0, 1]) / np.sqrt(A[0, 0] * A[1, 1])
    kappa = (1 + rho) / (1 - rho)
    m = 2 - 2 * np.cos(np.pi * np.arange(1, round(1 / h)) / round(1 / h))
    axis = A[0, 0] * m[:, None] + A[1, 1] * m[None, :]
    q = (np.sqrt(kappa) - 1) / (np.sqrt(kappa) + 1)
    return math.ceil(math.log(2 * np.sqrt(kappa * axis.max() / axis.min()) / GRID_TOL)
                     / math.log(1 / q))


@pytest.mark.parametrize("name", GRID_TENSORS)
def test_grid_cg_steps_do_not_grow_with_refinement(name, caplog):
    A = GRID_TENSORS[name]
    coarse, shape = grid_iterations(caplog, A, SQUARE, WAVE, 1 / 32)
    fine, fine_shape = grid_iterations(caplog, A, SQUARE, WAVE, 1 / 128)
    assert (shape, fine_shape) == ("33x33", "129x129")
    if name == "diagonal":
        # the preconditioner is the exact inverse, and the rounding of its one
        # step stays below the backward-error stop at every h
        assert coarse == 1 and fine == 1
    else:
        assert coarse <= pcg_step_bound(A, 1 / 32) and fine <= pcg_step_bound(A, 1 / 128)
    if name != "anisotropic":
        # at rho = 0.95 the count still rises towards its ceiling: 44 steps
        # at h = 1/32, 61 at 1/128 and 64 at 1/256
        assert abs(fine - coarse) <= 2


def _grid_run(monkeypatch, h):
    """(energy, final CG values, every preconditioned residual) of the L2
    grid at step h with the WAVE datum."""
    steps = []

    def recording(apply, b, precondition, *args, **kwargs):
        def kept(r):
            steps.append(precondition(r))
            return steps[-1]
        out = _preconditioned_cg(apply, b, kept, *args, **kwargs)
        steps.append(out[0].copy())
        return out

    monkeypatch.setattr(bvp, "_preconditioned_cg", recording)
    energy, _ = _fd_solve(GRID_TENSORS["L2"], SQUARE, WAVE, h)
    return energy, steps


@pytest.mark.parametrize("h", [1 / 32, 1 / 64])
def test_grid_preconditioner_is_the_dense_formula(h, monkeypatch):
    # the shared sine helper (solve._sine_solve) gives the continuum grid
    # the energy and CG iterates of the formula it replaced,
    # Sx @ ((Sx @ r @ Sy) / axis) @ Sy, bit for bit
    energy, steps = _grid_run(monkeypatch, h)

    def formula(bases, axis, r):
        Sx, Sy = bases
        return Sx @ ((Sx @ r @ Sy) / axis) @ Sy

    monkeypatch.setattr(bvp, "_sine_solve", formula)
    want_energy, want = _grid_run(monkeypatch, h)
    assert len(steps) == len(want) > 2
    assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64)) for a, b in zip(steps, want))
    assert np.float64(energy).view(np.uint64) == np.float64(want_energy).view(np.uint64)


@pytest.mark.parametrize("h", [1 / 32, 1 / 64])
def test_grid_cg_starts_from_the_coons_interpolant(h, caplog):
    # the transfinite interpolant of an affine datum is the affine field,
    # the grid minimizer, so CG takes no step; x*x - y is reproduced too
    # but is not A-harmonic, and CG still runs
    A = GRID_TENSORS["L2"]
    affine = affine_datum(0.25, [1.0, 0.5])
    assert grid_iterations(caplog, A, SQUARE, affine, h)[0] == 0
    energy, interp = _fd_solve(A, SQUARE, affine, h)
    assert energy == pytest.approx(8.5, rel=1e-14, abs=0)
    assert interp([0.3, 0.7]) == pytest.approx(0.25 + 0.3 + 0.35, rel=1e-14, abs=0)
    assert grid_iterations(caplog, A, SQUARE, QUADRATIC, h)[0] > 0


def test_grid_cg_cap_raises_no_convergence(monkeypatch):
    # eigenvalues paired with the wrong sine vectors: still a positive
    # definite preconditioner, but far from the axis part's inverse
    basis = bvp._sine_basis
    monkeypatch.setattr(bvp, "_sine_basis", lambda n: (basis(n)[0], basis(n)[1][::-1]))
    with pytest.raises(NoConvergence) as info:
        _fd_solve(GRID_TENSORS["L2"], SQUARE, WAVE, 1 / 32)
    assert GRID_TOL < info.value.residual < 1.0


@pytest.mark.parametrize("tensor", [
    [[1.0, 2.0], [2.0, 1.0]],          # indefinite
    [[1.0, 0.0], [0.0, 0.0]],          # singular
    [[1.0, 0.5], [0.4, 1.0]],          # not symmetric
    [[1.0, np.nan], [np.nan, 1.0]],
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    [[-4.0]],
])
def test_continuum_rejects_tensor_that_is_not_spd(tensor):
    calls = []
    phi = BoundaryDatum(lambda x: calls.append(x) or 0.0)
    omega = ((0, 1),) * len(tensor)
    with pytest.raises(InvalidTensor):
        continuum_reference(np.array(tensor), omega, phi, h=1.0 / 8)
    assert calls == []


def test_continuum_rejects_3d():
    with pytest.raises(UnsupportedDimension):
        continuum_reference(np.eye(3), ((0, 1),) * 3, X)


# ---------------------------------------------------------------------------
# refinement studies


def test_study_chain_rows(chain):
    res = epsilon_convergence_study(chain, ((0, 1),), X, EPS_LIST)
    for row in res.rows:
        assert abs(row.discrete_energy - 2.0) < 1e-10
        assert row.continuum_energy == pytest.approx(2.0, abs=1e-12)
    # cell means coincide with the continuum minimizer at cell centers exactly
    assert all(row.l2_error < 1e-10 for row in res.rows)


def test_study_ex1(examples):
    res = epsilon_convergence_study(examples["ex1"], ((0, 1),), X, EPS_LIST)
    assert res.continuum.energy == pytest.approx(4.0, abs=1e-12)
    errs = [row.l2_error for row in res.rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    ratios = [b / a for a, b in zip(errs, errs[1:])]
    assert all(0.3 <= r <= 0.7 for r in ratios)  # first-order trend
    l2s = [n[0] for n in res.norms]
    grads = [n[1] for n in res.norms]
    assert max(l2s) < 10 * max(min(l2s), 1e-12)
    assert all(np.isfinite(g) for g in grads)


def test_study_constant_datum(examples):
    phi = affine_datum(1.0, [0.0])
    res = epsilon_convergence_study(examples["ex4"], ((0, 1),), phi,
                                    [Fraction(1, 4), Fraction(1, 8)])
    for row in res.rows:
        assert row.discrete_energy == pytest.approx(0.0, abs=1e-18)
        assert row.l2_error == pytest.approx(0.0, abs=1e-12)


def test_study_logs_one_line_per_row(chain, caplog):
    with caplog.at_level(logging.DEBUG, logger="lattice_homog"):
        epsilon_convergence_study(chain, ((0, 1),), X, EPS_LIST[:2])
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("dirichlet study")]
    assert len(lines) == 2
    for eps, line in zip(EPS_LIST, lines):
        match = re.fullmatch(r"dirichlet study: eps (\S+), vertices (\d+), free dofs (\d+), "
                             r"seconds: solve (\S+), L2 error (\S+), norms (\S+)", line)
        assert match.group(1) == str(eps)
        # positions 0..1/eps, one node each; the band pins both ends
        assert (int(match.group(2)), int(match.group(3))) == (1 / eps + 1, 1 / eps - 1)
        assert all(float(t) >= 0 for t in match.groups()[3:])
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="lattice_homog"):
        epsilon_convergence_study(chain, ((0, 1),), X, EPS_LIST[:2])
    assert caplog.records == []


def test_study_requires_decreasing_eps(chain):
    with pytest.raises(ValueError):
        epsilon_convergence_study(chain, ((0, 1),), X,
                                  [Fraction(1, 8), Fraction(1, 4)])


def test_study_two_dimensional():
    g = square_lattice(1.5, 0.5)
    res = epsilon_convergence_study(g, ((0, 1), (0, 1)), X,
                                    [Fraction(1, 4), Fraction(1, 8)])
    assert res.continuum.energy == pytest.approx(3.0, abs=1e-8)
    diffs = [abs(r.discrete_energy - r.continuum_energy) for r in res.rows]
    assert diffs[1] < diffs[0]


def test_l2_error_against_exact_coarse_match(examples):
    g = examples["ex1"]
    p = DirichletProblem(g, ((0, 1),), Fraction(1, 16), X)
    u, _ = solve_dirichlet(p)
    # comparing against the discrete coarse values themselves gives zero
    from lattice_homog.coarse import coarse_field
    cf = coarse_field(u, [(0.0, 1.0)])
    lookup = {tuple(c): v for c, v in cf.means.items()}
    fn = lambda x: lookup[(int(x[0] / (float(p.eps) * g.T)),)]
    assert l2_error_against(u, ((0, 1),), fn) == pytest.approx(0.0, abs=1e-14)
