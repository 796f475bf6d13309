import math

import numpy as np
import pytest

from lattice_homog import InvalidDirection, WindowTooSmall, f_hom
from lattice_homog.asymptotic import (
    affine_energy_density,
    build_window_problem,
    convergence_study,
    finite_window_value,
    tiling_check,
    window_energy,
)

from conftest import square_lattice


def test_chain_exact_at_every_K(chain):
    for K in (2, 4, 8, 16):
        assert finite_window_value(chain, [1.0], K) == pytest.approx(2.0, abs=1e-12)


def test_window_too_small(chain):
    with pytest.raises(WindowTooSmall):
        finite_window_value(chain, [1.0], 1)


def test_window_singular_free_region():
    from lattice_homog import NoConvergence, graph_from_edges
    # a chain plus an isolated second row: interior isolated vertices have
    # zero matrix rows, which the solver must reject rather than return junk
    g = graph_from_edges(1, 1, 1, [(0, 0), (0, 1)],
                         [((0, 0), (0, 0), (1,), 1.0)])
    with pytest.raises(NoConvergence, match="size 1 .* no pinned neighbour"):
        finite_window_value(g, [1.0], 8)


def test_clamped_values_are_affine_bitwise(examples):
    g = examples["ex4"]
    problem = build_window_problem(g, np.array([1.0]), 8)
    values = problem.solve()
    for i in np.flatnonzero(problem.pinned):
        assert values[i] == problem.values[i]


def test_all_clamped_window_gives_affine_density(examples):
    # K = 2 with T = 1 clamps every vertex; the affine field is the minimizer
    g = examples["ex2"]
    v = finite_window_value(g, [1.0], 2)
    assert v == pytest.approx(affine_energy_density(g, [1.0]), abs=1e-12)


def test_lower_bound_every_fixture(examples):
    for name, g in examples.items():
        cell = f_hom(g, [1.0])
        for K in (2, 4, 8, 16):
            v = finite_window_value(g, [1.0], K)
            assert v >= cell - 1e-8, (name, K)


def test_ex4_gaps_decrease(examples):
    g = examples["ex4"]
    cell = f_hom(g, [1.0])
    vals = [finite_window_value(g, [1.0], K) for K in (4, 8, 16)]
    gaps = [v - cell for v in vals]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert all(gap >= 0 for gap in gaps)


def test_convention_halves_window_value(examples):
    g = examples["ex5"]
    d = finite_window_value(g, [1.0], 4, convention="double")
    s = finite_window_value(g, [1.0], 4, convention="single")
    assert abs(d - 2.0 * s) < 1e-12 * d


def test_convergence_study_table(examples):
    g = examples["ex4"]
    table = convergence_study(g, np.array([1.0]), [2, 4, 8, 16])
    assert table.direction == (1.0,) and type(table.direction[0]) is float
    assert [r.K for r in table.rows] == [2, 4, 8, 16]
    assert all(r.gap >= -1e-8 for r in table.rows)
    assert all(r.seconds >= 0 for r in table.rows)
    assert 0.3 < table.rate_exponent < 2.5  # diagnostic fit, roughly 1/K


def test_convergence_study_requires_sorted(chain):
    # a repeated K would put two identical points into the gap fit
    for Ks in ([4, 2], [2, 2]):
        with pytest.raises(ValueError, match="strictly increasing"):
            convergence_study(chain, [1.0], Ks)


@pytest.mark.parametrize("z", [[float("nan")], [float("inf")], [1.0, 0.0], []])
def test_window_direction_is_checked(examples, z):
    g = examples["ex5"]
    for call in (lambda: build_window_problem(g, z, 4),
                 lambda: finite_window_value(g, z, 4),
                 lambda: tiling_check(g, z, 2),
                 lambda: affine_energy_density(g, z)):
        with pytest.raises(InvalidDirection, match="finite vector of length 1"):
            call()


def test_chain_study_all_zero_gaps(chain):
    table = convergence_study(chain, [1.0], [2, 4, 8])
    assert all(abs(r.gap) < 1e-10 for r in table.rows)
    assert math.isnan(table.rate_exponent)


def test_tiling_inequality_fixtures(examples):
    for name, g in examples.items():
        for K in (2, 4, 8):
            check = tiling_check(g, [1.0], K)
            assert check.holds, (name, K, check.lhs, check.rhs)


def test_tiling_check_fields(examples):
    check = tiling_check(examples["ex1"], [1.0], 4)
    assert check.H == 8 and check.tiles == 1
    assert check.slack == 1e-6


def test_window_energy_evaluation_consistency(examples):
    g = examples["ex6"]
    problem = build_window_problem(g, np.array([1.0]), 4)
    values = problem.solve()
    e_double = window_energy(problem, values, convention="double")
    e_single = window_energy(problem, values, convention="single")
    assert abs(e_double - 2.0 * e_single) < 1e-12 * e_double


def test_two_dimensional_window():
    g = square_lattice(1.5, 0.5)
    cell = f_hom(g, [1.0, 0.0])
    for K in (4, 8):
        v = finite_window_value(g, [1.0, 0.0], K)
        assert v >= cell - 1e-8
        assert v == pytest.approx(cell, abs=1e-10)  # corrector-free lattice


def test_affine_density_dominates_cell_value(examples):
    for g in examples.values():
        assert affine_energy_density(g, [1.0]) >= f_hom(g, [1.0]) - 1e-12
