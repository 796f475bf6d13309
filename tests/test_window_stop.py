"""The certified energy stop of the window values.

asymptotic.finite_window_value starts the sine route's CG from the
two-scale field z . x + chi_z and stops it once r.Mr <= eps rho c, where
solve._SineReference.certificate gives rho with A_ff >= rho Ref; the energy
error is then at most eps c, c = 2 K^d z^T C z.  Every other route, every
reference that cannot certify the bound and every other caller keeps the
residual stop from the affine start.
"""

import logging

import numpy as np
import pytest

from lattice_homog import (NoConvergence, asymptotic, builtin_examples, cell, convergence_study,
                           finite_window_value,
                           graph_from_edges, normalize_period, solve, solve_dirichlet)
from lattice_homog.asymptotic import build_window_problem, window_energy
from lattice_homog.bvp import BoundaryDatum, DirichletProblem, build_system
from lattice_homog.graph import PinnedProblem

import cg_reference
import pinned_reference
from conftest import cube_lattice, layered_square_lattice, on_fft_route, random_square_lattice
from test_graph import _sine_fields, _sine_lines, _skew_lattice, _uneven_lattice

EPS = float(np.finfo(float).eps)


def _r4(seed=20240811, contrast=None):
    return random_square_lattice(4, np.random.default_rng(seed), contrast=contrast)


def _missing_bond_lattice():
    """R(4) without one of its 32 axis bonds: the y pairs of the window miss
    that bond at every cell, so not every position pair carries its class."""
    rng = np.random.default_rng(7)
    edges = []
    for x in range(4):
        for y in range(4):
            edges.append(((x, y), ((x + 1) % 4, y), (int(x == 3), 0), float(rng.uniform(0.5, 2))))
            if (x, y) != (1, 2):
                edges.append(((x, y), (x, (y + 1) % 4), (0, int(y == 3)),
                              float(rng.uniform(0.5, 2))))
    return graph_from_edges(2, 0, 4, [(x, y) for x in range(4) for y in range(4)], edges)


def _affine_energy(graph, z, K):
    """c = 2 K^d z^T C z, the energy scale of the certified stop."""
    z = np.asarray(z, dtype=float)
    return 2.0 * K ** graph.d * float(z @ graph.operator.C @ z)


def _window(monkeypatch, caplog, graph, z, K):
    """(value, problem, solution, the function of its start and energy, the
    pinned routes logged, _sine_fields) of finite_window_value(graph, z, K)."""
    seen = []
    solve_problem = PinnedProblem.solve

    def recording(problem, **options):
        x = solve_problem(problem, **options)
        seen.append((problem, x, options["_certified"]))
        return x

    caplog.clear()
    with monkeypatch.context() as patch, caplog.at_level(logging.DEBUG, logger="lattice_homog"):
        patch.setattr(PinnedProblem, "solve", recording)
        value = finite_window_value(graph, z, K)
    (problem, x, certified), = seen
    routes = [route for record in caplog.records
              if (route := record.getMessage().split(":")[0]) in ("band", "sine", "multigrid")]
    return value, problem, x, certified, routes, _sine_fields(caplog)


CERTIFIED = {"R(4)-seed-1": _r4(1), "R4": _r4(), "KD(4,3)": _r4(contrast=3.0)}


@pytest.mark.parametrize("graph", CERTIFIED.values(), ids=CERTIFIED.keys())
def test_certified_stop_stays_within_eps_c(graph, monkeypatch, caplog):
    # KD(4, 3) has spread 6.87, which the router sends to the band: a wider
    # spread cap keeps it on the sine route
    monkeypatch.setattr(solve, "_SINE_MAX_SPREAD", 7.0)
    z, K = (1.0, 1.0), 32
    c = _affine_energy(graph, z, K)
    value, problem, x, certified, routes, fields = _window(monkeypatch, caplog, graph, z, K)
    (_, _, kinds, steps, rho, bound, _), = fields
    start, energy = certified()
    assert routes == ["sine"] and energy == c and kinds == 1 and 0 < rho < 1
    assert bound <= EPS * c
    # the line's rho is the certificate's, to its three digits
    block = problem._free_system()[0]
    box = solve._Box(problem.positions[~problem.pinned])
    certificate = solve._SineReference.build(block.matrix, box).certificate(block.pinned, box)
    assert rho == pytest.approx(certificate, rel=5e-3)
    # the residual stop from the affine start, as PinnedProblem.solve() takes it
    y, [(_, _, _, residual_steps, none, _, _)] = _sine_lines(caplog, problem)
    assert none is None and steps < residual_steps
    # the energy error is e^T A_ff e, e = x - x*, which the residual-stop
    # solution stands in for x*, to far below eps c
    free = ~problem.pinned
    e = np.where(free, x - y, 0.0)
    assert problem.energy(e) <= EPS * c
    # the energies, up to edge_energy's rounding of a running sum of
    # nonnegative terms, and the value is that energy's density
    assert abs(problem.energy(x) - problem.energy(y)) <= (
        EPS * c + len(problem.coef) * EPS * problem.energy(y))
    assert value == window_energy(problem, x) / (K * graph.T) ** graph.d
    # the start is the two-scale field on the free vertices
    chi = asymptotic.corrector(graph, z).values
    assert np.array_equal(start, problem.values[free] + chi[problem.node_ids[free]])


@pytest.mark.parametrize("z", [(1.0, 0.0), (1.0, 1.0)])
@pytest.mark.parametrize("K", [32, 48])
def test_certified_stop_takes_at_most_ten_steps(z, K, monkeypatch, caplog):
    graph = _r4(1)
    *_, routes, [(dofs, _, _, steps, rho, bound, _)] = _window(monkeypatch, caplog, graph, z, K)
    assert routes == ["sine"] and dofs == (4 * K - 23) ** 2 and steps <= 10
    assert rho > 0 and bound <= EPS * _affine_energy(graph, z, K)


def _not_armed():
    """(graph, z, K, route) of windows on which the stop is not armed."""
    l2x4 = normalize_period(layered_square_lattice(), 4)
    yield "L2x4", (l2x4, (1.0, 0.5), 20, "sine")          # a diagonal bond, 2 kinds
    yield "skew", (_skew_lattice(4, np.random.default_rng(11)), (1.0, -0.5), 26, "sine")
    yield "missing-bond", (_missing_bond_lattice(), (1.0, 1.0), 32, "sine")
    yield "uneven", (_uneven_lattice(), (1.0, 1.0), 44, "multigrid")
    yield "R4-K16", (_r4(), (1.0, 1.0), 16, "band")
    yield "ex5", (builtin_examples()["ex5"], (1.0,), 64, "band")     # d = 1


NOT_ARMED = dict(_not_armed())


@pytest.mark.parametrize("graph, z, K, route", NOT_ARMED.values(), ids=NOT_ARMED.keys())
def test_stop_not_armed_keeps_the_residual_stop(graph, z, K, route, monkeypatch, caplog):
    solved, corrector = [], asymptotic.corrector
    monkeypatch.setattr(asymptotic, "corrector",
                        lambda *args: solved.append(args) or corrector(*args))
    value, problem, x, _, routes, fields = _window(monkeypatch, caplog, graph, z, K)
    assert routes == [route] and all(rho is bound is None for *_, rho, bound, _ in fields)
    assert solved == []         # no corrector is solved for a start no route takes
    # the same bits as the default call, which starts from the affine field
    assert np.array_equal(x, problem.solve())
    assert value == window_energy(problem, x) / (K * graph.T) ** graph.d
    if route == "sine":
        A = problem.reduced_system()[0]
        reference = solve._SineReference.build(A, solve._Box(problem.positions[~problem.pinned]))
        assert reference.least is None


def _reference_solve(problem):
    """The sine route's CG from the affine start with the residual stop,
    composed from the reference reduction and the allocating reference loop."""
    free = ~problem.pinned
    A, rhs = pinned_reference.reduced_system(problem)
    reference = solve._SineReference.build(A, solve._Box(problem.positions[free]))
    assert reference.invert()
    x = problem.values.copy()
    x[free] = cg_reference.preconditioned_cg(A.dot, rhs, reference, 2.0 * A.diagonal().max(),
                                             solve._CG_TOL, solve._MG_MAX_STEPS, "sine CG",
                                             problem.values[free])[0]
    return x


def test_default_callers_keep_the_residual_stop(caplog):
    # both systems could arm the stop (one kind, axis bonds), but neither the
    # default solve nor solve_dirichlet asks for it
    window = build_window_problem(_r4(), (1.0, 1.0), 32)
    dirichlet = DirichletProblem(cube_lattice(np.random.default_rng(3)), ((0, 1),) * 3, "1/24",
                                 BoundaryDatum(lambda x: x[0] - x[2], name="x - z"))
    system = build_system(dirichlet)
    for problem in (window, system):
        free = ~problem.pinned
        block = problem._free_system()[0]
        reference = solve._SineReference.build(block.matrix, solve._Box(problem.positions[free]))
        assert reference.certificate(block.pinned, solve._Box(problem.positions[free])) > 0
        x, [(*_, rho, bound, _)] = _sine_lines(caplog, problem)
        assert rho is bound is None and np.array_equal(x, _reference_solve(problem))
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="lattice_homog"):
        u, energy = solve_dirichlet(dirichlet)
    [(*_, rho, bound, _)] = _sine_fields(caplog)
    assert rho is bound is None
    assert np.array_equal(u.values, _reference_solve(system))
    assert energy == system.energy(u.values)


def test_certificate_bounds_the_system():
    # an R4 window at K = 8 (81 free dofs): A_ff - rho Ref is positive
    # semidefinite for the reference Ref = M^-1 that the sine transforms
    # invert, and rho is the least of the free-free ratios to the class
    # means and of the free-pinned sums to the reference's boundary terms,
    # computed here from the edges
    problem = build_window_problem(_r4(), (1.0, 1.0), 8)
    free = ~problem.pinned
    block = problem._free_system()[0]
    A = block.matrix.toarray()
    box = solve._Box(problem.positions[free])
    reference = solve._SineReference.build(block.matrix, box)
    assert reference.invert()
    rho = reference.certificate(block.pinned, box)
    M = np.column_stack([reference(column) for column in np.eye(len(A))])
    ref = np.linalg.inv(M)
    assert np.linalg.eigvalsh(A - rho * ref).min() >= -1e-12 * np.abs(A).max()
    rng = np.random.default_rng(5)
    for r in rng.standard_normal((5, len(A))):
        assert r @ np.linalg.solve(A, r) <= (r @ M @ r) / rho * (1 + 1e-12)
    # rho from the edges: per axis, the couplings of free neighbours and
    # their mean, and each free vertex's coefficients to pinned vertices
    index = np.cumsum(free) - 1
    a, b = problem.ends.T
    ratios, means = [], []
    for axis in range(2):
        shift = np.abs(problem.positions[a] - problem.positions[b])
        inner = free[a] & free[b] & (shift[:, axis] == 1) & (shift.sum(axis=1) == 1)
        coupling = np.zeros((len(A), len(A)))
        np.add.at(coupling, (index[a[inner]], index[b[inner]]), problem.coef[inner])
        values = (coupling + coupling.T)[np.triu(coupling + coupling.T) > 0]
        means.append(values.mean())
        ratios.append(values.min() / means[-1])
    held = np.zeros(len(A))
    out = free[a] != free[b]
    np.add.at(held, index[np.where(free[a[out]], a[out], b[out])], problem.coef[out])
    position = problem.positions[free] - problem.positions[free].min(axis=0)
    side = position.max(axis=0)
    missing = sum(mean * ((position[:, m] == 0) + (position[:, m] == side[m]))
                  for m, mean in enumerate(means))
    face = missing > 0
    want = min(min(ratios), (held[face] / missing[face]).min())
    assert rho == pytest.approx(want, rel=1e-12)
    # a face vertex without a pinned coupling leaves no certificate
    held = block.pinned.copy()
    held[np.flatnonzero(face)[0]] = 0.0
    assert reference.certificate(held, box) is None
    assert reference.certificate(None, box) is None


def test_corrector_failure_falls_back_to_the_affine_start(monkeypatch, caplog):
    def fail(graph, z, tol=1e-10):
        raise NoConvergence("corrector CG hit the cap")

    monkeypatch.setattr(asymptotic, "corrector", fail)
    graph, z, K = _r4(), (1.0, 1.0), 32
    c = _affine_energy(graph, z, K)
    value, problem, x, certified, routes, [(*_, rho, bound, _)] = _window(
        monkeypatch, caplog, graph, z, K)
    start, energy = certified()
    assert routes == ["sine"] and energy == c and rho > 0 and bound <= EPS * c
    assert np.array_equal(start, problem.values[~problem.pinned])
    y = problem.solve()
    assert abs(problem.energy(x) - problem.energy(y)) <= (
        EPS * c + len(problem.coef) * EPS * problem.energy(y))


def test_study_solves_the_two_scale_corrector_once(monkeypatch, caplog):
    # on the FFT route every corrector is a CG solve: the study solves the
    # cell value's and, for the windows on the certified sine route, one
    # two-scale corrector that every K shares, not one per K
    solves, solve_corrector = [], cell.solve_corrector
    monkeypatch.setattr(cell, "solve_corrector",
                        lambda *args, **kwargs: solves.append(kwargs.get("energy_tol", 0.0))
                        or solve_corrector(*args, **kwargs))
    graph, z = on_fft_route(_r4()), (1.0, 1.0)
    with caplog.at_level(logging.DEBUG, logger="lattice_homog"):
        table = convergence_study(graph, z, [32, 33])
    routes = [record.getMessage().split(":")[0] for record in caplog.records]
    assert routes.count("sine") == 2 and len(table.rows) == 2
    assert len(solves) == 2 and solves[0] > 0 and solves[1] == 0.0
