"""solve._preconditioned_cg against the allocating loop of cg_reference.

The in-place loop must return what the allocating one returns, bit for bit:
the same x, step count, backward error and r.Mr, or the same NoConvergence.
Each caller's solve is checked by running both loops on the arguments the
caller passes (the FFT and plain-CG correctors, the multigrid and sine
pinned solves, the continuum grid), and the small cases of test_graph by
calling both.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from lattice_homog import BoundaryDatum, NoConvergence, homogenized_tensor, solve_corrector
from lattice_homog import bvp, cell, solve
from lattice_homog.asymptotic import build_window_problem
from lattice_homog.solve import DENSE_MAX_NODES, PCG_MIN_NODES

import cg_reference
from conftest import EPS, random_square_lattice


def _outcome(loop, *args, **kwargs):
    try:
        return loop(*args, **kwargs)
    except NoConvergence as err:
        return str(err), err.residual


def _assert_same(new, ref):
    if isinstance(new[0], str):
        assert new == ref
        return
    (x, *rest), (x_ref, *rest_ref) = new, ref
    assert x.dtype == x_ref.dtype and np.array_equal(x, x_ref)
    assert rest == rest_ref


@pytest.fixture
def both_loops(monkeypatch):
    """Patches the loop into `module` so that each call also runs the
    reference on the same arguments; returns the list of compared calls."""
    compared = []
    loop = solve._preconditioned_cg

    def patch(module):
        def both(*args, **kwargs):
            new = loop(*args, **kwargs)
            _assert_same(new, cg_reference.preconditioned_cg(*args, **kwargs))
            compared.append(new[1])
            return new

        monkeypatch.setattr(module, "_preconditioned_cg", both)
        return compared

    return patch


def test_fft_corrector_with_the_energy_stop_is_the_reference():
    # both axes of R(64) as homogenized_tensor solves them, against the
    # reference loop with the allocating projection _project(precondition(r))
    g = random_square_lattice(64, np.random.default_rng(64))
    op, pre = g.operator, g.operator.preconditioner
    assert pre is not None and g.n_cell >= PCG_MIN_NODES
    fields = homogenized_tensor(g).correctors
    for e, field in zip(np.eye(2), fields):
        b = op.B @ e
        energy_tol = EPS * pre.rho * float(e @ op.C @ e)
        rhs = cell._project(-b)
        x, steps, backward, rz = cg_reference.preconditioned_cg(
            op.L.dot, rhs, lambda r: cell._project(pre(r)), 0.0, 1e-10, 10 * g.n_cell,
            "corrector CG", energy_tol=energy_tol)
        assert 0 < steps == field.iterations and rz == field.r_Mr > 0
        assert np.array_equal(x, field.values)
        assert backward * float(np.linalg.norm(rhs)) == field.residual
        direct = solve_corrector(op.L, b, precondition=pre, energy_tol=energy_tol)
        assert np.array_equal(direct.values, x) and direct.r_Mr == rz


def test_fft_corrector_calls_are_the_reference(both_loops):
    compared = both_loops(cell)
    homogenized_tensor(random_square_lattice(64, np.random.default_rng(64)))
    assert len(compared) == 2 and min(compared) > 0


def test_plain_cg_corrector_is_the_reference(both_loops):
    g = random_square_lattice(15, np.random.default_rng(15))
    assert DENSE_MAX_NODES < g.n_cell < PCG_MIN_NODES
    compared = both_loops(cell)
    homogenized_tensor(g)
    assert len(compared) == 2 and min(compared) > 0


def _counted(monkeypatch, name):
    """Wrap solve.`name` so that each call is listed; returns the list."""
    calls, route = [], getattr(solve, name)

    def call(*args):
        calls.append(name)
        return route(*args)

    monkeypatch.setattr(solve, name, call)
    return calls


def test_multigrid_window_solve_is_the_reference(both_loops, monkeypatch):
    # the router sends this window to the sine route; no side fits it here
    monkeypatch.setattr(solve, "_SINE_MAX_SIDE", 0)
    problem = build_window_problem(random_square_lattice(4, np.random.default_rng(20240811)),
                                   [1.0, 1.0], 32)
    calls = _counted(monkeypatch, "_Multigrid")
    compared = both_loops(solve)
    problem.solve()
    assert len(calls) == len(compared) == 1 and compared[0] > 0


def test_sine_window_solve_is_the_reference(both_loops, monkeypatch):
    problem = build_window_problem(random_square_lattice(4, np.random.default_rng(20240811)),
                                   [1.0, 1.0], 32)
    calls = _counted(monkeypatch, "_cg_solve")
    compared = both_loops(solve)
    problem.solve()
    assert len(calls) == len(compared) == 1 and compared[0] > 0


def test_continuum_grid_solve_is_the_reference(both_loops):
    A = np.array([[20.0 / 3.0, 2.0 / 3.0], [2.0 / 3.0, 14.0 / 3.0]])
    wave = BoundaryDatum(lambda x: np.sin(3 * x[0]) * np.cos(2 * x[1]) + x[0] * x[1])
    compared = both_loops(bvp)
    bvp._fd_solve(A, ((0.0, 1.0), (0.0, 1.0)), wave, 1 / 32)
    assert len(compared) == 1 and compared[0] > 0


def _line_laplacian():
    return sp.diags([-np.ones(99), 2.0 * np.ones(100), -np.ones(99)], [-1, 0, 1], format="csr")


def _turning():
    """A preconditioner that returns its argument once and then its negative."""
    calls = []

    def turning(r):
        calls.append(None)
        return r if len(calls) == 1 else -r

    return turning


def test_identity_preconditioner_cases_are_the_reference():
    # the test_graph cases of a preconditioner that returns its argument:
    # a zero right-hand side, a passing start, and breakdowns at iterations
    # 0 and 1, in the order those tests run them
    A = _line_laplacian()
    start = np.linspace(-1.0, 1.0, 100)
    identity = lambda r: r
    cases = [(A.dot, np.zeros(100), identity, 4.0, 1e-14, 5, "test CG", np.ones(100))]
    cases += [(A.dot, A @ start + 1e-16, identity, norm, 1e-14, 5, "test CG", start)
              for norm in (4.0, 0.0)]
    cases += [((-A).dot, np.full(100, 3.0), identity, 4.0, 1e-14, 5, "test CG"),
              (A.dot, np.full(100, 3.0), lambda r: -r, 4.0, 1e-14, 5, "test CG")]
    for args in cases:
        _assert_same(_outcome(solve._preconditioned_cg, *args),
                     _outcome(cg_reference.preconditioned_cg, *args))
    args = (A.dot, np.full(100, 3.0))
    new = _outcome(solve._preconditioned_cg, *args, _turning(), 4.0, 1e-14, 5, "test CG",
                   energy_tol=1e300)
    ref = _outcome(cg_reference.preconditioned_cg, *args, _turning(), 4.0, 1e-14, 5,
                   "test CG", energy_tol=1e300)
    assert new[0].startswith("test CG broke down at iteration 1") and new == ref


def test_a_preconditioner_returning_its_argument_runs_true_cg():
    # p starts as a copy of M r, so the residual update cannot reach the
    # first search direction: returning r is the copying preconditioner bit
    # for bit, and CG meets the test within n = 100 steps
    A = _line_laplacian()
    b = np.sin(0.3 * np.arange(100.0))
    args = (A.dot, b)
    same = solve._preconditioned_cg(*args, lambda r: r, 4.0, 1e-12, 500, "test CG")
    copy = solve._preconditioned_cg(*args, lambda r: r.copy(), 4.0, 1e-12, 500, "test CG")
    _assert_same(same, copy)
    _assert_same(same, cg_reference.preconditioned_cg(*args, lambda r: r.copy(), 4.0, 1e-12,
                                                      500, "test CG"))
    assert same[1] <= 100 and same[2] <= 1e-12
