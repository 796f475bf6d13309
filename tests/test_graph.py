import logging
import re

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from lattice_homog import (
    CellNode,
    DisconnectedGraph,
    EdgeOrbit,
    EmptyWindow,
    LatticeGraph,
    NoConvergence,
    UnknownNode,
    builtin_examples,
    connectedness_certificate,
    f_hom,
    finite_window_value,
    graph_from_edges,
    instantiate_window,
    normalize_period,
    validate,
    witness_path,
)
from lattice_homog import graph, solve
from lattice_homog.asymptotic import build_window_problem
from lattice_homog.bvp import BoundaryDatum, DirichletProblem, build_system
from lattice_homog.coarse import check_poincare
from lattice_homog.graph import FiniteGraph, PinnedProblem, _hnf_rows, position_box

import pinned_reference
from conftest import (cube_lattice, layered_square_lattice, long_offset_chain,
                      oracle_neighbours, random_square_lattice)
from test_bvp import GRID_TENSORS, SQUARE, WAVE, WIDE, grid_problem


def test_validate_example2_passes(examples):
    report = validate(examples["ex2"])
    assert report.ok
    assert report.R == 1


def test_validate_edgeless_graph_fails_connectedness():
    g = graph_from_edges(1, 1, 1, [(0, 0), (0, 1)], [])
    report = validate(g)
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"connectedness"}


def test_validate_chain(chain):
    report = validate(chain)
    assert report.ok
    assert report.R == 1


def test_validate_reports_range_bound_violation():
    g = graph_from_edges(1, 0, 1, [(0,)], [((0,), (0,), (3,), 1.0)])
    report = validate(g)
    failed = {c.name for c in report.checks if not c.passed}
    assert "range-bound" in failed
    assert report.R == 3


def test_validate_is_pure(examples):
    from lattice_homog import parse, serialize
    g = examples["ex4"]
    r1 = validate(g).to_dict()
    r2 = validate(g).to_dict()
    assert r1 == r2
    # serializing and re-validating yields an identical report
    assert validate(parse(serialize(g))).to_dict() == r1


def test_duplicate_nodes_rejected():
    with pytest.raises(ValueError, match="duplicate node"):
        LatticeGraph(1, 0, 1, [CellNode((0,), ()), CellNode((0,), ())], [])


def test_duplicate_orbits_rejected():
    n = CellNode((0,), ())
    orb = EdgeOrbit(n, n, (1,), 1.0)
    rev = EdgeOrbit(n, n, (-1,), 1.0)  # same orbit, reversed orientation
    with pytest.raises(ValueError, match="duplicate orbit"):
        LatticeGraph(1, 0, 1, [n], [orb, rev])


@pytest.mark.parametrize("x", [-1, 3])
def test_node_outside_period_rejected(x):
    # T = 3: the d-coordinates of a node lie in [0, 3)
    rows = [(0, 0), (x, 1)]
    with pytest.raises(ValueError, match=rf"node \({x} 1\) has a d-coordinate outside \[0, 3\)"):
        graph_from_edges(1, 1, 3, rows, [(rows[0], rows[1], (0,), 1.0)])
    a, b = (CellNode(r[:1], r[1:]) for r in rows)
    with pytest.raises(ValueError, match=rf"node \({x} 1\) has a d-coordinate"):
        LatticeGraph(1, 1, 3, [a, b], [EdgeOrbit(a, b, (0,), 1.0)])


def test_canonical_orientation():
    a = CellNode((0,), (0,))
    b = CellNode((0,), (1,))
    orb = EdgeOrbit(b, a, (1,), 2.0)
    c = orb.canonical()
    assert (c.u, c.v, c.offset) == (a, b, (-1,))
    assert c.weight == 2.0


# ---------------------------------------------------------------------------
# connectedness


def test_certificate_double_helix(examples):
    cert = connectedness_certificate(examples["ex6"])
    assert cert.connected
    g = examples["ex6"]
    for node in g.nodes:
        path = witness_path(g, node, node, 0)
        assert path[0] == (node, (0,))
        assert path[-1] == (node, (1,))


def test_validate_widens_witness_window():
    # lattice index gcd(9, 10) = 1, but the e_1 witness 0 -> -9 -> 1 leaves +-4 cells
    g = graph_from_edges(1, 0, 1, [(0,)], [((0,), (0,), (9,), 1.0),
                                           ((0,), (0,), (10,), 1.0)])
    report = validate(g)
    assert [c.name for c in report.checks if not c.passed] == ["range-bound"]  # R=10 > T=1
    path = witness_path(g, g.nodes[0], g.nodes[0], 0)
    assert path[0][1] == (0,) and path[-1][1] == (1,)
    assert max(abs(c[0]) for _, c in path) > 4


def test_certificate_parallel_chains_quotient_disconnected():
    g = graph_from_edges(1, 1, 1, [(0, 0), (0, 1)],
                         [((0, 0), (0, 0), (1,), 1.0),
                          ((0, 1), (0, 1), (1,), 1.0)])
    with pytest.raises(DisconnectedGraph) as err:
        connectedness_certificate(g)
    assert err.value.reason == "quotient"


def test_certificate_offset_two_sublattice():
    g = graph_from_edges(1, 0, 1, [(0,)], [((0,), (0,), (2,), 1.0)])
    with pytest.raises(DisconnectedGraph) as err:
        connectedness_certificate(g)
    assert err.value.reason == "sublattice"
    cert = connectedness_certificate(g, raise_on_failure=False)
    assert cert.lattice_index == 2
    # brute-force confirmation: BFS over the +-8 window never reaches odd cells
    reached = _bfs_cells(g, radius=8)
    assert all(c[0] % 2 == 0 for c in reached)


def test_witness_path_raises_on_offset_two_sublattice():
    g = graph_from_edges(1, 0, 1, [(0,)], [((0,), (0,), (2,), 1.0)])
    with pytest.raises(DisconnectedGraph) as err:
        witness_path(g, g.nodes[0], g.nodes[0], 0)
    assert err.value.reason == "sublattice"


def _lattice_index(basis, d):
    if len(basis) < d:
        return 0
    det = 1
    for row in basis:
        det *= row[next(i for i, x in enumerate(row) if x != 0)]
    return abs(det)


def test_hnf_rows():
    assert _hnf_rows([(2,)], 1) == [[2]]
    assert _lattice_index(_hnf_rows([(2, 0), (0, 3), (1, 1)], 2), 2) == 1
    # checkerboard sublattice
    assert _lattice_index(_hnf_rows([(2, 0), (0, 2), (1, 1)], 2), 2) == 2
    # lattice spanned by (0,2) and (3,1): determinant 6
    assert _lattice_index(_hnf_rows([(0, 2), (3, 1)], 2), 2) == 6
    # rank deficiency
    assert _lattice_index(_hnf_rows([(2, 4), (1, 2)], 2), 2) == 0


def test_hnf_rows_random_against_determinant(rng):
    # for two independent 2d generators the index is |det|; adding integer
    # combinations of them must not change the computed index
    for _ in range(200):
        a = [int(x) for x in rng.integers(-4, 5, size=2)]
        b = [int(x) for x in rng.integers(-4, 5, size=2)]
        det = abs(a[0] * b[1] - a[1] * b[0])
        if det == 0:
            continue
        extra = [a[0] * 2 - b[0], a[1] * 2 - b[1]]
        got = _lattice_index(_hnf_rows([a, b, extra], 2), 2)
        assert got == det, (a, b, got, det)


def _bfs_cells(g, radius):
    from collections import deque
    nbrs = [[] for _ in range(g.n_cell)]
    for orb in g.orbits:
        a, b = g.node_index(orb.u), g.node_index(orb.v)
        nbrs[a].append((b, orb.offset))
        nbrs[b].append((a, tuple(-o for o in orb.offset)))
    start = (0, (0,) * g.d)
    seen = {start}
    queue = deque([start])
    while queue:
        x, cell = queue.popleft()
        for y, off in nbrs[x]:
            ncell = tuple(c + o for c, o in zip(cell, off))
            if all(abs(c) <= radius for c in ncell) and (y, ncell) not in seen:
                seen.add((y, ncell))
                queue.append((y, ncell))
    return {cell for _, cell in seen}


def _random_graph(rng):
    d = int(rng.integers(1, 3))
    T = int(rng.integers(1, 4))
    k = int(rng.integers(0, 2))
    n_nodes = min(int(rng.integers(1, 7)), T ** d * 2 ** k)
    coords = set()
    while len(coords) < n_nodes:
        dpos = tuple(int(rng.integers(0, T)) for _ in range(d))
        kpos = tuple(int(rng.integers(0, 2)) for _ in range(k))
        coords.add(dpos + kpos)
    nodes = [CellNode(c[:d], c[d:]) for c in sorted(coords)]
    orbits = {}
    for _ in range(int(rng.integers(1, 10))):
        u = nodes[rng.integers(len(nodes))]
        v = nodes[rng.integers(len(nodes))]
        off = tuple(int(rng.integers(-1, 2)) for _ in range(d))
        orb = EdgeOrbit(u, v, off, float(rng.uniform(0.5, 2.0))).canonical()
        dd, dk = orb.displacement(T)
        if not any(dd + dk):
            continue
        orbits.setdefault((orb.u, orb.v, orb.offset), orb)
    return LatticeGraph(d, k, T, nodes, list(orbits.values()))


def test_certificate_agrees_with_window_bfs(examples, rng):
    graphs = list(examples.values()) + [_random_graph(rng) for _ in range(50)]
    for g in graphs:
        cert = connectedness_certificate(g, raise_on_failure=False)
        reached = _bfs_states(g, radius=4)
        central = {(tuple(c), ni)
                   for ni in range(g.n_cell)
                   for c in _cells_within(g.d, 1)}
        bfs_connected = central <= reached
        assert cert.connected == bfs_connected, f"disagreement on {g!r}"


def _cells_within(d, radius):
    from itertools import product
    return list(product(range(-radius, radius + 1), repeat=d))


def _bfs_states(g, radius):
    from collections import deque
    nbrs = [[] for _ in range(g.n_cell)]
    for orb in g.orbits:
        a, b = g.node_index(orb.u), g.node_index(orb.v)
        nbrs[a].append((b, orb.offset))
        nbrs[b].append((a, tuple(-o for o in orb.offset)))
    start = ((0,) * g.d, 0)
    seen = {start}
    queue = deque([start])
    while queue:
        cell, x = queue.popleft()
        for y, off in nbrs[x]:
            ncell = tuple(c + o for c, o in zip(cell, off))
            state = (ncell, y)
            if all(abs(c) <= radius for c in ncell) and state not in seen:
                seen.add(state)
                queue.append(state)
    return seen


# ---------------------------------------------------------------------------
# neighbours: the ordered pairs of the dense oracle


def test_neighbors_chain(chain):
    node = chain.nodes[0]
    out = oracle_neighbours(chain, node)
    assert sorted(o for _, o, _ in out) == [(-1,), (1,)]
    assert all(n == node and w == 1.0 for n, _, w in out)


def test_neighbors_unknown_node(chain):
    with pytest.raises(UnknownNode):
        oracle_neighbours(chain, CellNode((0,), (5,)))


def test_neighbors_symmetry(examples):
    for g in examples.values():
        for i in g.nodes:
            for j, off, w in oracle_neighbours(g, i):
                back = oracle_neighbours(g, j)
                assert (i, tuple(-o for o in off), w) in back


def test_neighbors_degree_ex4(examples):
    g = examples["ex4"]
    node = g.nodes[0]  # (0 0): two rail orientations + rung + diagonal
    assert len(oracle_neighbours(g, node)) == 4


# ---------------------------------------------------------------------------
# windows


def test_window_chain_open(chain):
    fg = instantiate_window(chain, [(0, 4)])
    assert len(fg.positions) == 4
    assert len(fg.ends) == 3


def test_window_chain_clamped(chain):
    problem = build_window_problem(chain, [1.0], 4)
    # padded by one cell per side: three inside pairs at 2 w and one
    # crossing bond per side at w; the outside ends -1 and 4 are pinned, and
    # so is every vertex nearer than 2 to the box boundary
    x = problem.positions[:, 0]
    assert x.tolist() == [-1, 0, 1, 2, 3, 4]
    assert x[problem.ends].tolist() == [[-1, 0], [0, 1], [1, 2], [2, 3], [3, 4]]
    assert problem.coef.tolist() == [1.0, 2.0, 2.0, 2.0, 1.0]
    assert problem.pinned.tolist() == [True, True, True, False, True, True]


def test_window_clamped_ghosts_far_outside():
    # offsets 9 and 10 (gcd 1): every crossing bond ends 9 or 10 cells
    # outside the window, in the padding of r = 10 cells
    g = graph_from_edges(1, 0, 1, [(0,)], [((0,), (0,), (9,), 1.0),
                                           ((0,), (0,), (10,), 1.0)])
    problem = build_window_problem(g, [1.0], 4)
    x = problem.positions[:, 0]
    assert (x.min(), x.max()) == (-10, 13)
    a, b = problem.ends.T
    assert np.all(problem.coef == 1.0) and np.all(np.abs(x[a] - x[b]) >= 9)
    ends = np.where((x[a] >= 0) & (x[a] < 4), b, a)
    assert sorted(set(x[ends].tolist())) == [-10, -9, -8, -7, -6, 9, 10, 11, 12, 13]
    assert problem.pinned[ends].all()


def test_window_vertex_order(examples):
    # vertex c * n + i is node i of the c-th cell, cells in row-major order
    g = examples["ex6"]
    fg = instantiate_window(g, [(1, 3)])
    dpos = np.array([node.dpos for node in g.nodes])
    cells = np.repeat([1, 2], g.n_cell)
    assert fg.node_ids.tolist() == list(range(g.n_cell)) * 2
    assert np.array_equal(fg.positions[:, 0], dpos[fg.node_ids, 0] + g.T * cells)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_window_counts_closed_form(chain, n):
    fg = instantiate_window(chain, [(0, n)])
    assert len(fg.positions) == n * chain.n_cell
    assert len(fg.ends) == n - 1


def test_window_vertex_count_invariant(examples):
    # an orbit with offset o has prod(3 - |o_m|) instances inside 3^d cells
    for g in examples.values():
        fg = instantiate_window(g, [(0, 3)] * g.d)
        assert len(fg.positions) == 3 ** g.d * g.n_cell
        assert len(fg.ends) == np.prod(np.maximum(3 - np.abs(g.offset), 0), axis=1).sum()


@pytest.mark.parametrize("K", [1, 3])
def test_window_and_position_box_are_one_piece(examples, K):
    # the cells [0, K) and the positions [0, K*T - 1] hold the same vertices
    # and the same edges, in a different order
    graphs = dict(examples, R4=random_square_lattice(4, np.random.default_rng(20240811)),
                  L2=layered_square_lattice())
    for name, g in graphs.items():
        pieces = [instantiate_window(g, [(0, K)] * g.d),
                  position_box(g, [0] * g.d, [K * g.T - 1] * g.d)]
        vertex_sets, edge_sets = [], []
        for fg in pieces:
            assert isinstance(fg, FiniteGraph)
            keys = [(tuple(p), i) for p, i in zip(fg.positions.tolist(), fg.node_ids.tolist())]
            vertex_sets.append(set(keys))
            edge_sets.append(sorted((tuple(sorted((keys[a], keys[b]))), w)
                                    for (a, b), w in zip(fg.ends.tolist(), fg.weights.tolist())))
        assert len(vertex_sets[0]) == len(pieces[0].positions) == K ** g.d * g.n_cell, name
        assert vertex_sets[0] == vertex_sets[1], name
        assert edge_sets[0] == edge_sets[1], name


def test_window_empty(chain):
    with pytest.raises(EmptyWindow):
        instantiate_window(chain, [(2, 2)])


def test_window_deterministic_order(examples):
    g = examples["ex1"]
    a = instantiate_window(g, [(0, 3)])
    b = instantiate_window(g, [(0, 3)])
    for field in ("positions", "node_ids", "ends", "weights"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


# ---------------------------------------------------------------------------
# pinned solve


def _pinned_systems():
    """The L2 Dirichlet problem at eps 1/16 and the R4 window at z = (1, 1),
    K = 16."""
    phi = BoundaryDatum(lambda x: x[0] * x[0] - x[1], name="x*x - y")
    yield build_system(DirichletProblem(layered_square_lattice(), ((0, 1), (0, 1)), "1/16", phi))
    yield build_window_problem(random_square_lattice(4, np.random.default_rng(20240811)),
                               [1.0, 1.0], 16)


def _superlu(problem):
    """problem.solve() by SuperLU, on the reference reduced system."""
    free = ~problem.pinned
    A, rhs = pinned_reference.reduced_system(problem)
    x = problem.values.copy()
    x[free] = pinned_reference.superlu_solve(A, rhs)
    return x


@pytest.mark.parametrize("problem", list(_pinned_systems()), ids=["L2-dirichlet", "R4-window"])
def test_pinned_solve_matches_dense_solve(problem):
    A, rhs = pinned_reference.reduced_system(problem)
    dense = np.linalg.solve(A.toarray(), rhs)
    x = problem.solve()
    assert np.array_equal(x[problem.pinned], problem.values[problem.pinned])
    assert np.abs(x[~problem.pinned] - dense).max() <= 1e-12 * np.abs(dense).max()


def _loop_and_zero_problem():
    """The quotient of normalize_period(L2, 2) as a pinned problem: its
    orbits repeat vertex pairs, which must sum, and a loop and a
    zero-coefficient edge are added, which must leave no entry.  The loop's
    entries would cancel in exact arithmetic; its large coefficient makes
    them round away the rest of their row."""
    g = normalize_period(layered_square_lattice(), 2)
    ends = np.vstack([np.column_stack([g.u, g.v]), [[1, 1], [1, 6]]])
    pairs = np.sort(ends[:-2], axis=1)
    assert len(np.unique(pairs, axis=0)) < len(pairs)
    pinned = np.isin(np.arange(g.n_cell), [0, 5])
    return PinnedProblem(g.dpos, np.arange(g.n_cell), ends, np.append(g.w, [1e17, 0.0]), pinned,
                         np.where(pinned, np.cos(np.arange(g.n_cell)), 0.0))


def _assembled_problems():
    """Pinned problems of every kind the package builds, and two more."""
    r4 = random_square_lattice(4, np.random.default_rng(20240811))
    yield "R4-window", build_window_problem(r4, [1.0, 1.0], 16)
    yield "clamped-chain", build_window_problem(long_offset_chain(), [1.0], 12)
    yield "L2-dirichlet", next(_pinned_systems())
    box = position_box(r4, [0, 0], [32, 32])
    free = graph.inside(box.positions, 12, 20)
    yield "poincare-box", PinnedProblem(box.positions, box.node_ids, box.ends,
                                        2.0 * box.weights, ~free, np.zeros(len(free)))
    yield "negative-grid", grid_problem(GRID_TENSORS["negative"], SQUARE, WAVE, 1 / 16)[1]
    yield "loop-and-zero", _loop_and_zero_problem()


ASSEMBLED = dict(_assembled_problems())


@pytest.mark.parametrize("problem", ASSEMBLED.values(), ids=ASSEMBLED.keys())
def test_reduced_system_matches_reference(problem):
    A, rhs = problem.reduced_system()
    want_A, want_rhs = pinned_reference.reduced_system(problem)
    assert A.has_canonical_format and want_A.has_canonical_format
    assert np.array_equal(A.indptr, want_A.indptr) and np.array_equal(A.indices, want_A.indices)
    assert np.abs(A.data - want_A.data).max() <= 1e-15 * np.abs(want_A.data).max()
    assert np.abs(rhs - want_rhs).max() <= 1e-15 * np.abs(want_rhs).max()


def test_warm_start_of_zero_rhs_returns_exact_zeros():
    # from x0 != 0 the backward-error stop asks ||A x|| <= 1e-14 ||A|| ||x||,
    # which no x != 0 meets here: only the exact answer x = 0 stops it
    A = sp.diags([-np.ones(99), 2.0 * np.ones(100), -np.ones(99)], [-1, 0, 1], format="csr")
    x, steps, backward, rz = solve._preconditioned_cg(A.dot, np.zeros(100), lambda r: r, 4.0,
                                                      1e-14, 5, "test CG", np.ones(100))
    assert np.array_equal(x, np.zeros(100)) and steps == 0 and backward == 0.0 and rz == 0.0


def test_passing_start_costs_one_product():
    # the start residual just computed gives the backward error: no second
    # product with A, and the same value _backward_error recomputes
    A = sp.diags([-np.ones(99), 2.0 * np.ones(100), -np.ones(99)], [-1, 0, 1], format="csr")
    start = np.linspace(-1.0, 1.0, 100)
    b = A @ start + 1e-16
    for norm in (4.0, 0.0):
        calls = []

        def apply(v):
            calls.append(v)
            return A @ v

        x, steps, backward, rz = solve._preconditioned_cg(apply, b, lambda r: r, norm, 1e-14,
                                                          5, "test CG", start)
        assert len(calls) == 1 and steps == 0 and np.array_equal(x, start) and rz is None
        assert backward == solve._backward_error(A.dot, start, b, norm) <= 1e-14


def test_shared_cg_breakdown_raises_backward_error():
    # -A is negative definite, so p.Ap < 0 on the first step; an indefinite
    # preconditioner breaks down on r.Mr instead
    A = sp.diags([-np.ones(99), 2.0 * np.ones(100), -np.ones(99)], [-1, 0, 1], format="csr")
    b = np.full(100, 3.0)
    for apply, precondition, label in (((-A).dot, lambda r: r, "p.Ap"),
                                       (A.dot, lambda r: -r, "r.Mr")):
        message = rf"test CG broke down at iteration 0 \({label} = "
        with pytest.raises(NoConvergence, match=message) as info:
            solve._preconditioned_cg(apply, b, precondition, 4.0, 1e-14, 5, "test CG")
        # at x = 0 the backward error ||b|| / (4 ||x|| + ||b||) is 1, not ||b|| = 30
        assert info.value.residual == 1.0 and "backward error" in str(info.value)


def test_energy_stop_reports_the_recomputed_backward_error():
    # the energy stop ends the loop before the residual test would, and
    # returns the backward error of the recomputed residual, as the residual
    # stop does
    A = sp.diags([-np.ones(99), 2.0 * np.ones(100), -np.ones(99)], [-1, 0, 1], format="csr")
    b = np.sin(0.3 * np.arange(100.0))
    jacobi = lambda r: r / 2.0
    _, full, _, none = solve._preconditioned_cg(A.dot, b, jacobi, 4.0, 1e-6, 500, "test CG")
    x, steps, backward, rz = solve._preconditioned_cg(A.dot, b, jacobi, 4.0, 1e-6, 500,
                                                      "test CG", energy_tol=1e-2)
    assert none is None and 0 < rz <= 1e-2 and steps < full
    assert backward == solve._backward_error(A.dot, x, b, 4.0) > 1e-6
    # a residual stop with the energy stop armed still forms r.Mr of its residual
    x, steps, backward, rz = solve._preconditioned_cg(A.dot, b, jacobi, 4.0, 1e-6, 500,
                                                      "test CG", energy_tol=1e-300)
    r = b - A @ x
    assert steps == full and backward <= 1e-6
    assert rz == pytest.approx(r @ jacobi(r), rel=1e-6)


def test_energy_stop_never_takes_a_breakdown_for_convergence():
    # the preconditioner turns indefinite after its first call: r.Mr < 0
    # lies below any energy_tol, and the loop must still report the breakdown
    A = sp.diags([-np.ones(99), 2.0 * np.ones(100), -np.ones(99)], [-1, 0, 1], format="csr")
    b = np.full(100, 3.0)
    calls = []

    def turning(r):
        calls.append(r)
        return r if len(calls) == 1 else -r

    with pytest.raises(NoConvergence, match=r"broke down at iteration 1 \(r\.Mr = "):
        solve._preconditioned_cg(A.dot, b, turning, 4.0, 1e-14, 5, "test CG",
                                 energy_tol=1e300)


@pytest.fixture
def multigrid_route(monkeypatch):
    """Send every pinned system from _MG_MIN_DOFS rows to multigrid: no box
    side fits the sine route, and no band storage fits the band."""
    monkeypatch.setattr(solve, "_SINE_MAX_SIDE", 0)
    monkeypatch.setattr(solve, "_BAND_MAX_BYTES", 0)


def test_warm_start_takes_fewer_steps(caplog, monkeypatch, multigrid_route):
    problem = build_window_problem(random_square_lattice(4, np.random.default_rng(20240811)),
                                   [1.0, 1.0], 32)
    x, [(dofs, _, warm, backward)] = _multigrid_lines(caplog, problem)
    assert dofs == (~problem.pinned).sum() and backward <= solve._CG_TOL
    cg = solve._cg_solve
    monkeypatch.setattr(solve, "_cg_solve", lambda A, rhs, start, *route:
                        cg(A, rhs, None, *route))
    _, [(_, _, cold, _)] = _multigrid_lines(caplog, problem)
    assert warm < cold
    want = _superlu(problem)
    assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()


def test_multigrid_prolongator_is_the_sparse_product():
    # P = P0 - diags(w) @ (A @ P0) bit for bit: on the finest level, whose
    # aggregates (boxes of 4 x 4 positions) hold whole rows that sum to zero,
    # and on a coarse level with other aggregates
    problem = build_window_problem(random_square_lattice(4, np.random.default_rng(20240811)),
                                   [1.0, 1.0], 32)
    fine, _ = problem.reduced_system()
    positions = problem.positions[~problem.pinned]
    boxes = np.unique((positions - positions.min(axis=0)) // 4, axis=0, return_inverse=True)[1]
    coarse = solve._Multigrid(fine, solve._Box(positions)).levels[1][0]
    for A, labels in ((fine, boxes.ravel()), (coarse, np.arange(coarse.shape[0]) // 5)):
        n, count = A.shape[0], labels.max() + 1
        weight = np.linspace(0.5, 0.7, n)
        P0 = sp.csr_matrix((np.ones(n), labels, np.arange(n + 1)), shape=(n, count))
        want = (P0 - sp.diags(weight) @ (A @ P0)).tocsr()
        P = solve._smoothed_prolongator(A, labels, count, weight).tocsr()
        want.sort_indices()
        P.sort_indices()
        assert np.array_equal(P.indptr, want.indptr)
        assert np.array_equal(P.indices, want.indices)
        assert np.array_equal(P.data.view(np.uint64), want.data.view(np.uint64))


def _band_lines(caplog, problem):
    """(solution, the (free dofs, band width, backward error) of each band
    debug line) of problem.solve()."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="lattice_homog"):
        x = problem.solve()
    lines = [re.fullmatch(r"band: free dofs (\d+), box \S+, kinds \S+, spread \S+, "
                          r"band width (\d+), backward error (\S+)", r.getMessage())
             for r in caplog.records]
    return x, [(int(m[1]), int(m[2]), float(m[3])) for m in lines if m]


def test_band_route_logs_one_line(caplog, monkeypatch):
    problem = next(_pinned_systems())
    x, lines = _band_lines(caplog, problem)
    assert len(caplog.records) == 1
    (dofs, width, backward), = lines
    # two vertices per position, 15 free positions across: the (1, 1)
    # diagonal bond reaches 2 * 15 + 2 rows down
    assert dofs == (~problem.pinned).sum() and width == 32 and backward <= 1e-15
    # with debug off, the backward error is not computed
    calls = []
    monkeypatch.setattr(solve, "_backward_error", lambda *args: calls.append(args))
    with caplog.at_level(logging.INFO, logger="lattice_homog"):
        assert np.array_equal(problem.solve(), x)
    assert calls == []


def _layered_lattice(layers):
    """`layers` layers of Z^2 (k = 1, T = 1), axis bonds of weight 1 + m / 4
    in layer m and a rung of weight 1 between neighbouring layers."""
    nodes = [(0, 0, m) for m in range(layers)]
    edges = [(a, a, offset, 1.0 + a[2] / 4.0) for a in nodes for offset in ((1, 0), (0, 1))]
    edges += [(a, b, (0, 0), 1.0) for a, b in zip(nodes, nodes[1:])]
    return graph_from_edges(2, 1, 1, nodes, edges)


def _band_problems():
    """Pinned problems below the multigrid threshold, which take the band
    route: windows, Dirichlet problems of one to four vertices per position,
    a d = 3 cube and the continuum grid on a wide box."""
    r4 = random_square_lattice(4, np.random.default_rng(20240811))
    yield "R4-window", build_window_problem(r4, [1.0, 1.0], 16)
    yield "ex5-window", build_window_problem(builtin_examples()["ex5"], [1.0], 256)
    yield "long-offset-chain", build_window_problem(long_offset_chain(), [1.0], 64)
    yield "L2-dirichlet", next(_pinned_systems())
    phi = BoundaryDatum(lambda x: x[0] * x[0] - x[-1], name="x*x - last")
    yield "four-layer-dirichlet", build_system(DirichletProblem(
        _layered_lattice(4), SQUARE, "1/16", phi))
    yield "cube-dirichlet", build_system(DirichletProblem(
        cube_lattice(np.random.default_rng(3)), ((0, 1),) * 3, "1/16", phi))
    yield "wide-grid", grid_problem(GRID_TENSORS["L2"], WIDE, WAVE, 1 / 32)[1]


BAND = dict(_band_problems())


@pytest.mark.parametrize("problem", BAND.values(), ids=BAND.keys())
def test_band_route_matches_superlu(problem, caplog):
    x, [(dofs, _, backward)] = _band_lines(caplog, problem)
    assert dofs == (~problem.pinned).sum() < solve._MG_MIN_DOFS and backward <= 1e-14
    want = _superlu(problem)
    assert np.array_equal(x[problem.pinned], want[problem.pinned])
    assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()
    assert abs(problem.energy(x) - problem.energy(want)) <= 1e-13 * problem.energy(want)


@pytest.mark.parametrize("problem", [*BAND.values(), _loop_and_zero_problem()],
                         ids=[*BAND.keys(), "loop-and-zero"])
def test_band_fill_matches_the_csr_copy(problem, monkeypatch):
    # the band filled from the pairs holds the CSR's lower entries bit for
    # bit, repeated pairs summed in the CSR's order, so the solution is the
    # CSR copy's; and the band route builds no CSR
    free = ~problem.pinned
    A, rhs = problem.reduced_system()
    want = problem.values.copy()
    want[free] = pinned_reference.band_solve(A, rhs, problem.positions[free])
    built, matrix = [], solve.FreeBlock.matrix
    monkeypatch.setattr(solve.FreeBlock, "matrix",
                        property(lambda block: built.append(block) or matrix.func(block)))
    assert np.array_equal(problem.solve(), want)
    assert built == []


@pytest.mark.parametrize("omega", [WIDE, WIDE[::-1]], ids=["wide", "tall"])
def test_band_runs_along_the_long_side(omega, caplog):
    # the 9-point grid reaches one position along each axis, and a slice
    # across the long side holds ny - 1 = 15 free positions (wide) or
    # nx - 1 = 15 (tall): ordered along the long side, the band is
    # (15 + 1) x 1 wide; ordered along the short side it would be 31 + 1
    problem = grid_problem(GRID_TENSORS["L2"], omega, WAVE, 1 / 16)[1]
    x, [(dofs, width, _)] = _band_lines(caplog, problem)
    assert dofs == 15 * 31 and width <= (15 + 1) * 1
    want = _superlu(problem)
    assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()


def test_band_route_rejects_an_indefinite_system():
    # an indefinite tensor makes the grid's A_ff indefinite: the Cholesky
    # factorization meets a negative pivot
    problem = grid_problem(np.array([[1.0, 2.0], [2.0, 1.0]]), SQUARE, WAVE, 1 / 8)[1]
    with pytest.raises(NoConvergence, match="band Cholesky failed: .* not positive definite"):
        problem.solve()


def test_band_route_solves_loop_and_zero_problem(caplog):
    problem = _loop_and_zero_problem()
    x, [(dofs, _, _)] = _band_lines(caplog, problem)
    A, rhs = pinned_reference.reduced_system(problem)
    dense = np.linalg.solve(A.toarray(), rhs)
    assert dofs == len(rhs) and np.array_equal(x[problem.pinned], problem.values[problem.pinned])
    assert np.abs(x[~problem.pinned] - dense).max() <= 1e-12 * np.abs(dense).max()


def test_band_route_solves_free_vertices_without_pairs():
    # no edge joins two free vertices: the band is the diagonal alone, with
    # no pair to fill it, and each free value is its neighbours' weighted
    # mean, up to the rounding of the Cholesky factor's square roots
    positions = np.array([[0, 0], [1, 0], [2, 0], [1, 1]])
    coef = np.array([1.0, 3.5, 2.5])
    problem = PinnedProblem(positions, np.zeros(4, dtype=int), np.array([[0, 1], [1, 2], [3, 0]]),
                            coef, np.array([True, False, True, False]),
                            np.array([0.0, 0.0, 1.0, 0.0]))
    assert np.abs(problem.solve() - [0.0, 3.5 / 4.5, 1.0, 0.0]).max() <= 1e-15
    # a star grounded at its centre
    X = graph.grounded_solve(positions, np.array([[0, 1], [0, 2], [3, 0]]), coef, 0,
                             np.array([[-3.0], [2.0], [3.5], [-2.5]]))
    assert np.abs(X.ravel() - [0.0, 2.0, 1.0, -1.0]).max() <= 1e-15


def _multigrid_lines(caplog, problem):
    """(solution, the (free dofs, levels, steps, backward error) of each
    multigrid debug line) of problem.solve()."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="lattice_homog"):
        x = problem.solve()
    lines = [re.fullmatch(r"multigrid: free dofs (\d+), box \S+, kinds \S+, spread \S+, "
                          r"levels (\d+), iterations (\d+), backward error (\S+)",
                          r.getMessage()) for r in caplog.records]
    return x, [(int(m[1]), int(m[2]), int(m[3]), float(m[4])) for m in lines if m]


def _multigrid_problems():
    """The L2 Dirichlet problem at eps 1/64 (7 938 free dofs) and the
    KD(4, 100) window at z = (1, 1), K = 26 (6 561), both above the
    multigrid threshold; the router sends them to the sine route and the
    band, so the tests force multigrid (multigrid_route)."""
    phi = BoundaryDatum(lambda x: x[0] * x[0] - x[1], name="x*x - y")
    yield build_system(DirichletProblem(layered_square_lattice(), ((0, 1), (0, 1)), "1/64", phi))
    kd = random_square_lattice(4, np.random.default_rng(20240811), contrast=100.0)
    yield build_window_problem(kd, [1.0, 1.0], 26)


@pytest.mark.parametrize("problem", list(_multigrid_problems()),
                         ids=["L2-dirichlet", "KD-window"])
def test_multigrid_matches_superlu(problem, caplog, multigrid_route):
    x, lines = _multigrid_lines(caplog, problem)
    (dofs, levels, steps, backward), = lines
    assert dofs == (~problem.pinned).sum() >= solve._MG_MIN_DOFS and levels >= 2
    assert backward <= solve._CG_TOL
    want = _superlu(problem)
    assert np.array_equal(x[problem.pinned], want[problem.pinned])
    assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()
    assert abs(problem.energy(x) - problem.energy(want)) <= 1e-10 * problem.energy(want)


def test_multigrid_steps_do_not_grow_with_window(caplog, monkeypatch, multigrid_route):
    # K = 16 is below the threshold; lower it so that every K runs multigrid
    monkeypatch.setattr(solve, "_MG_MIN_DOFS", 0)
    r4 = random_square_lattice(4, np.random.default_rng(20240811))
    steps = {}
    for K in (16, 32, 48, 64):
        _, [(dofs, _, steps[K], backward)] = _multigrid_lines(
            caplog, build_window_problem(r4, [1.0, 1.0], K))
        assert dofs == (4 * K - 23) ** 2 and backward <= solve._CG_TOL
    assert max(steps.values()) - steps[16] <= 3 and steps[16] - min(steps.values()) <= 3


def test_multigrid_cap_raises_no_convergence(monkeypatch, multigrid_route):
    monkeypatch.setattr(solve, "_MG_MAX_STEPS", 3)
    problem = next(_multigrid_problems())
    with pytest.raises(NoConvergence, match="multigrid CG hit the 3-iteration cap") as info:
        problem.solve()
    assert solve._CG_TOL < info.value.residual < 1.0


def _unique_hierarchy(A, positions):
    """(levels, coarsest matrix) of solve._Multigrid with each level's box
    labels taken from np.unique, the construction its occupancy mask
    replaced."""
    levels = []
    blocks = ((positions - positions.min(axis=0)) // solve._MG_BOX).astype(np.intp)
    while A.shape[0] > solve._MG_COARSEST:
        key = np.ravel_multi_index(tuple(blocks.T), tuple(blocks.max(axis=0) + 1))
        _, first, labels = np.unique(key, return_index=True, return_inverse=True)
        if len(first) == A.shape[0]:
            blocks //= 2
            continue
        diag = A.diagonal()
        weight = 4.0 / (3.0 * (abs(A).sum(axis=1).A1 / diag).max()) / diag
        P = solve._smoothed_prolongator(A, labels, len(first), weight)
        R = P.T.tocsr()
        levels.append((A, weight, P, R))
        A = R @ A @ P
        blocks = blocks[first] // 2
    return levels, A


def _same_bits(a, b):
    if sp.issparse(a):
        return (a.shape == b.shape and np.array_equal(a.indptr, b.indptr)
                and np.array_equal(a.indices, b.indices) and _same_bits(a.data, b.data))
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("problem", [
    build_window_problem(random_square_lattice(4, np.random.default_rng(20240811)),
                         [1.0, 1.0], 32),
    next(_multigrid_problems()),
    build_system(DirichletProblem(cube_lattice(np.random.default_rng(3)), ((0, 1),) * 3,
                                  "1/24", BoundaryDatum(lambda x: x[0] - x[2], name="x - z"))),
], ids=["R4-window", "L2-dirichlet", "cube-dirichlet"])
def test_multigrid_labels_are_the_unique_ranks(problem):
    A, _ = problem.reduced_system()
    positions = problem.positions[~problem.pinned]
    cycle = solve._Multigrid(A, solve._Box(positions))
    levels, coarsest = _unique_hierarchy(A, positions)
    assert len(cycle.levels) == len(levels) >= 2
    for got, want in zip(cycle.levels, levels):
        assert all(_same_bits(a, b) for a, b in zip(got, want))
    assert _same_bits(cycle.coarsest[0], sla.cho_factor(coarsest.toarray())[0])


def _skew_lattice(T, rng):
    """A T x T cell of Z^2 with U(0.5, 2) weights on the axis bonds and on a
    (1, 1) diagonal, whose (1, -1) mirror is absent."""
    nodes = [(x, y) for x in range(T) for y in range(T)]
    edges = [((x, y), ((x + dx) % T, (y + dy) % T), ((x + dx) // T, (y + dy) // T),
              float(rng.uniform(0.5, 2.0)))
             for x, y in nodes for dx, dy in ((1, 0), (0, 1), (1, 1))]
    return graph_from_edges(2, 0, T, nodes, edges)


def _uneven_lattice():
    """T = 2, k = 1: one vertex at three positions of the cell and two, joined
    by a rung, at the fourth, so no box of positions holds the same number
    of vertices at each."""
    sites = [(x, y, 0) for x in range(2) for y in range(2)]
    extra = (0, 0, 1)
    edges = [((x, y, 0), ((x + 1) % 2, y, 0), (x, 0), 1.0 + x / 2) for x, y, _ in sites]
    edges += [((x, y, 0), (x, (y + 1) % 2, 0), (0, y), 1.0 + y / 4) for x, y, _ in sites]
    edges += [((0, 0, 0), extra, (0, 0), 1.0), (extra, extra, (1, 0), 0.5),
              (extra, extra, (0, 1), 0.5)]
    return graph_from_edges(2, 1, 2, sites + [extra], edges)


def _uneven_problem():
    phi = BoundaryDatum(lambda x: x[0] * x[0] - x[1], name="x*x - y")
    return build_system(DirichletProblem(_uneven_lattice(), SQUARE, "1/80", phi))


def _grounded_grid(side, columns):
    """grounded_solve's arguments on a side x side grid of unit bonds,
    grounded at vertex 0, with the columns e_i - mean over the first
    `columns` vertices: side^2 - 1 free rows and a band side wide."""
    positions = np.array([(x, y) for x in range(side) for y in range(side)])
    index = np.arange(side * side).reshape(side, side)
    ends = np.vstack([np.column_stack([index[:-1].ravel(), index[1:].ravel()]),
                      np.column_stack([index[:, :-1].ravel(), index[:, 1:].ravel()])])
    rhs = np.zeros((side * side, columns))
    rhs[:columns] = np.eye(columns) - 1.0 / columns
    return positions, ends, np.ones(len(ends)), 0, rhs


def test_pinned_solve_routes(examples, monkeypatch, caplog):
    # columns_solve imports scipy.sparse.linalg when it is called, so the
    # SuperLU spy sits on that module
    import scipy.sparse.linalg as spla
    calls = []

    def spy(route, solve, rows=lambda A, *args: A.shape[0]):
        def call(*args, **options):
            calls.append((route, rows(*args)))
            return solve(*args, **options)
        return call

    monkeypatch.setattr(spla, "spsolve", spy("superlu", spla.spsolve))
    monkeypatch.setattr(solve._Band, "solve",
                        spy("band", solve._Band.solve, lambda band, rhs, *args: len(rhs)))
    # the sine and multigrid routes share _cg_solve, whose last argument names the route
    cg = solve._cg_solve
    monkeypatch.setattr(solve, "_cg_solve", lambda *args: spy(args[-1], cg)(*args))
    r4 = random_square_lattice(4, np.random.default_rng(20240811))
    below = build_window_problem(r4, [1.0, 1.0], 24)              # d = 2, 5 329 free dofs
    chain = build_window_problem(examples["ex5"], [1.0], 2000)    # d = 1, 9 981 free dofs
    sine, contrast = _multigrid_problems()                        # 7 938 and 6 561
    uneven = _uneven_problem()                                    # 7 450, uneven kinds
    # the grounded solves of the inequality harnesses: a triangle takes the
    # band, and 320 columns on a 40 x 40 grid, whose band work
    # 41 x 1 599 x 320 exceeds _BAND_MAX_WORK, take SuperLU
    wide = _grounded_grid(40, 320)
    assert (40 + 1) * (40 * 40 - 1) * 320 > solve._BAND_MAX_WORK
    with caplog.at_level(logging.DEBUG, logger="lattice_homog"):
        for problem in (below, chain, sine, contrast, uneven):
            problem.solve()
        ends = np.array([[0, 1], [1, 2], [2, 0]])
        graph.grounded_solve(np.array([[0], [1], [2]]), ends, np.ones(3), 0,
                             np.array([[2.0], [-1.0], [-1.0]]))
        X = graph.grounded_solve(*wide)
    assert calls == [("band", (~below.pinned).sum()), ("band", (~chain.pinned).sum()),
                     ("sine", (~sine.pinned).sum()), ("band", (~contrast.pinned).sum()),
                     ("multigrid", (~uneven.pinned).sum()), ("band", 2), ("superlu", 1599)]
    assert calls[0][1] < solve._MG_MIN_DOFS <= min(count for _, count in calls[1:5])
    # each route logs one debug line, the SuperLU one with its nonzeros
    lines = [record.getMessage() for record in caplog.records]
    assert [line.split(":")[0] for line in lines] == [route for route, _ in calls]
    band = re.fullmatch(r"band: free dofs 2, box 2, kinds -, spread -, band width 1, "
                        r"backward error (\S+)", lines[-2])
    assert band and float(band[1]) <= 1e-15
    superlu = re.fullmatch(r"superlu: free dofs 1599, nnz (\d+), backward error (\S+)", lines[-1])
    assert superlu and int(superlu[1]) == 1599 + 2 * (2 * 40 * 39 - 2)
    assert float(superlu[2]) <= 1e-15
    # L X = rhs off the grounded vertex
    positions, ends, coef, source, rhs = wide
    L = graph.laplacian(len(positions), ends, coef)
    assert np.abs(L @ X - rhs)[1:].max() <= 1e-12 and not X[source].any()


def _sine_lines(caplog, problem):
    """(solution, the (free dofs, box, kinds, steps, backward error) of each
    sine debug line) of problem.solve()."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="lattice_homog"):
        x = problem.solve()
    lines = [re.fullmatch(r"sine: free dofs (\d+), box (\S+), kinds (\d+), spread \S+, "
                          r"iterations (\d+), backward error (\S+)", r.getMessage())
             for r in caplog.records]
    return x, [(int(m[1]), m[2], int(m[3]), int(m[4]), float(m[5])) for m in lines if m]


def _zero_start(problem):
    """`problem` with zero values on its free vertices, so that CG starts
    from zeros: the affine start is already the minimizer of an L2 window."""
    values = np.where(problem.pinned, problem.values, 0.0)
    return PinnedProblem(problem.positions, problem.node_ids, problem.ends, problem.coef,
                         problem.pinned, values)


def _sine_problems():
    """Pinned problems the router sends to the sine route."""
    r4 = random_square_lattice(4, np.random.default_rng(20240811))
    phi = BoundaryDatum(lambda x: x[0] * x[0] - x[1], name="x*x - y")
    yield "R4-window", build_window_problem(r4, [1.0, 1.0], 32), ("105x105", 1)
    yield "L2-dirichlet", next(_multigrid_problems()), ("63x63", 2)
    l2x4 = normalize_period(layered_square_lattice(), 4)
    yield "L2x4-window", _zero_start(build_window_problem(l2x4, [1.0, 0.5], 20)), ("57x57", 2)
    yield "cube-dirichlet", build_system(DirichletProblem(
        cube_lattice(np.random.default_rng(3)), ((0, 1),) * 3, "1/24",
        BoundaryDatum(lambda x: x[0] - x[2], name="x - z"))), ("21x21x21", 1)
    skew = _skew_lattice(4, np.random.default_rng(11))
    yield "skew-window", build_window_problem(skew, [1.0, -0.5], 26), ("81x81", 1)


SINE = {name: (problem, box) for name, problem, box in _sine_problems()}


@pytest.mark.parametrize("problem, box", SINE.values(), ids=SINE.keys())
def test_sine_route_matches_superlu(problem, box, caplog):
    x, lines = _sine_lines(caplog, problem)
    assert len(caplog.records) == 1
    (dofs, shape, kinds, steps, backward), = lines
    assert dofs == (~problem.pinned).sum() >= solve._MG_MIN_DOFS and (shape, kinds) == box
    assert 0 < steps <= 25 and backward <= solve._CG_TOL
    want = _superlu(problem)
    assert np.array_equal(x[problem.pinned], want[problem.pinned])
    assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()
    assert abs(problem.energy(x) - problem.energy(want)) <= 1e-10 * problem.energy(want)


def test_sine_steps_do_not_grow_with_window(caplog):
    r4 = random_square_lattice(4, np.random.default_rng(20240811))
    steps = {}
    for K in (32, 48, 64):
        _, [(dofs, _, _, steps[K], backward)] = _sine_lines(
            caplog, build_window_problem(r4, [1.0, 1.0], K))
        assert dofs == (4 * K - 23) ** 2 and backward <= solve._CG_TOL
    assert max(steps.values()) - min(steps.values()) <= 3


def test_sine_cap_raises_no_convergence(monkeypatch):
    monkeypatch.setattr(solve, "_MG_MAX_STEPS", 3)
    problem = next(_multigrid_problems())
    with pytest.raises(NoConvergence, match="sine CG hit the 3-iteration cap") as info:
        problem.solve()
    assert solve._CG_TOL < info.value.residual < 1.0


def test_uneven_kinds_fall_back_to_multigrid(caplog):
    problem = _uneven_problem()
    A, _ = problem.reduced_system()
    assert solve._SineReference.build(A, solve._Box(problem.positions[~problem.pinned])) is None
    x, [(dofs, _, _, backward)] = _multigrid_lines(caplog, problem)
    assert dofs == (~problem.pinned).sum() >= solve._MG_MIN_DOFS and backward <= solve._CG_TOL
    want = _superlu(problem)
    assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("layers", [1, 3])
def test_sine_reference_of_axis_bonds_is_the_system(layers):
    # with axis bonds of one weight per axis and layer, and rungs between
    # the layers at one position, the reference is A_ff itself: its
    # inverse, with one kind per layer, inverts A_ff
    problem = build_system(DirichletProblem(_layered_lattice(layers), SQUARE, "1/48",
                                            BoundaryDatum(lambda x: x[0] * x[1])))
    A, rhs = problem.reduced_system()
    reference = solve._SineReference.build(A, solve._Box(problem.positions[~problem.pinned]))
    assert (reference.kinds, reference.spread) == (layers, 1.0) and reference.invert()
    r = np.sin(np.arange(len(rhs), dtype=float))
    assert np.abs(A @ reference(r) - r).max() <= 1e-12 * np.abs(r).max()


def test_block_inverse_rejects_an_indefinite_block(rng):
    X = rng.standard_normal((3, 3, 50))
    blocks = np.einsum("ikp,jkp->ijp", X, X) + np.eye(3)[:, :, None]
    inverse = solve._block_inverse(blocks)
    want = np.moveaxis(np.linalg.inv(np.moveaxis(blocks, -1, 0)), 0, -1)
    assert np.abs(inverse - want).max() <= 1e-12 * np.abs(want).max()
    blocks[2, 2, 7] = -1.0
    assert solve._block_inverse(blocks) is None


def _free_positions(monkeypatch, run):
    """The sorted distinct free d-positions of each PinnedProblem solved or
    reduced by `run()`."""
    seen = []
    build = PinnedProblem._free_system

    def recording(problem):
        seen.append(sorted({tuple(x) for x in problem.positions[~problem.pinned].tolist()}))
        return build(problem)

    with monkeypatch.context() as patch:
        patch.setattr(PinnedProblem, "_free_system", recording)
        run()
    return seen


def test_layer_conventions_share_one_band_rule(examples, monkeypatch):
    # the window frees a vertex exactly 2 sqrt(d) T from the box boundary and
    # the Poincare problem pins it: on ex5 (4 d T^2 = 64) the bands are 8 and 9
    g = examples["ex5"]
    window = _free_positions(monkeypatch, lambda: finite_window_value(g, [1.0], 8))
    poincare = _free_positions(monkeypatch, lambda: check_poincare(g, [8], trials=2))
    assert window == [[(x,) for x in range(8, 25)]]
    assert poincare == [[(x,) for x in range(9, 24)]]
    # no vertex lies at that distance when 4 d T^2 is not a square: on R4
    # both bands are 12
    r4 = random_square_lattice(4, np.random.default_rng(20240811))
    window = _free_positions(monkeypatch, lambda: finite_window_value(r4, [1.0, 1.0], 8))
    poincare = _free_positions(monkeypatch, lambda: check_poincare(r4, [8], trials=2))
    assert window == poincare == [[(x, y) for x in range(12, 21) for y in range(12, 21)]]


# ---------------------------------------------------------------------------
# period normalization


def test_normalize_period_keeps_f_hom(examples):
    for name in ("ex1", "ex2", "ex4"):
        g = examples[name]
        gn = normalize_period(g)
        assert gn.T % g.T == 0 and gn.M <= gn.T
        assert gn.n_cell == g.n_cell * (gn.T // g.T) ** g.d
        assert validate(gn).ok
        a = f_hom(g, [1.0])
        b = f_hom(gn, [1.0])
        assert abs(a - b) <= 1e-9 * abs(a)
