from fractions import Fraction

import numpy as np
import pytest

from lattice_homog import (
    DatumUndefined,
    EmptyInterior,
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
)

from conftest import square_lattice

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
    cons = {int(pos[0]) for pos, c in zip(system.positions, system.constrained) if c}
    assert cons == {0, 8}
    p2 = DirichletProblem(chain, ((0, 1),), Fraction(1, 8), X, r=3)
    cons2 = {int(pos[0]) for pos, c
             in zip(build_system(p2).positions, build_system(p2).constrained) if c}
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
    scale = 2.0 * float(eps) ** (g.d - 2)
    a, b = system.edges.T
    affine_energy = float(np.sum(scale * system.weights * (shifted[a] - shifted[b]) ** 2))
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
