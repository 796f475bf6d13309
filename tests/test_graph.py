import numpy as np
import pytest

from lattice_homog import (
    CellNode,
    DisconnectedGraph,
    EdgeOrbit,
    EmptyWindow,
    LatticeGraph,
    UnknownNode,
    connectedness_certificate,
    f_hom,
    graph_from_edges,
    instantiate_window,
    neighbors,
    normalize_period,
    validate,
)
from lattice_homog.graph import _hnf_rows


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
        path = cert.witnesses[(node, node, 0)]
        assert path[0] == (node, (0,))
        assert path[-1] == (node, (1,))


def test_validate_widens_witness_window():
    # lattice index gcd(9, 10) = 1, but the e_1 witness 0 -> -9 -> 1 leaves +-4 cells
    g = graph_from_edges(1, 0, 1, [(0,)], [((0,), (0,), (9,), 1.0),
                                           ((0,), (0,), (10,), 1.0)])
    report = validate(g)
    assert [c.name for c in report.checks if not c.passed] == ["range-bound"]  # R=10 > T=1
    path = connectedness_certificate(g).witnesses[(g.nodes[0], g.nodes[0], 0)]
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
# neighbours


def test_neighbors_chain(chain):
    node = chain.nodes[0]
    out = neighbors(chain, node)
    assert sorted(o for _, o, _ in out) == [(-1,), (1,)]
    assert all(n == node and w == 1.0 for n, _, w in out)


def test_neighbors_unknown_node(chain):
    with pytest.raises(UnknownNode):
        neighbors(chain, CellNode((0,), (5,)))


def test_neighbors_symmetry(examples):
    for g in examples.values():
        for i in g.nodes:
            for j, off, w in neighbors(g, i):
                back = neighbors(g, j)
                assert (i, tuple(-o for o in off), w) in back


def test_neighbors_degree_ex4(examples):
    g = examples["ex4"]
    node = g.nodes[0]  # (0 0): two rail orientations + rung + diagonal
    assert len(neighbors(g, node)) == 4


# ---------------------------------------------------------------------------
# windows


def test_window_chain_open(chain):
    fg = instantiate_window(chain, [(0, 4)], wrap="open")
    assert len(fg.vertices) == 4
    assert len(fg.edges) == 3
    assert len(fg.ghost_edges) == 0


def test_window_chain_periodic(chain):
    fg = instantiate_window(chain, [(0, 4)], wrap="periodic")
    assert len(fg.vertices) == 4
    assert len(fg.edges) == 4  # one orbit instance per cell


def test_window_chain_clamped(chain):
    fg = instantiate_window(chain, [(0, 4)], wrap="clamped")
    assert len(fg.edges) == 3
    # one outgoing instance at the right edge, one incoming at the left
    assert len(fg.ghost_edges) == 2
    assert sorted(fg.boundary_vertices[:, 0].tolist()) == [-1, 4]


def test_window_clamped_ghosts_far_outside():
    # offsets 9 and 10 (gcd 1): every ghost lies 9 or 10 cells outside
    g = graph_from_edges(1, 0, 1, [(0,)], [((0,), (0,), (9,), 1.0),
                                           ((0,), (0,), (10,), 1.0)])
    fg = instantiate_window(g, [(0, 4)], wrap="clamped")
    assert fg.boundary_vertices[:, 0].tolist() == [-10, -9, -8, -7, -6, 9, 10, 11, 12, 13]
    inside, ghost = fg.ghost_edges.T
    assert np.all(np.abs(fg.boundary_vertices[ghost, 0] - fg.vertices[inside, 0]) >= 9)


def test_window_vertex_order(examples):
    # vertex c * n + i is node i of the c-th cell, cells in row-major order
    g = examples["ex6"]
    fg = instantiate_window(g, [(1, 3)], wrap="open")
    dpos = np.array([node.dpos for node in g.nodes])
    cells = np.repeat([1, 2], g.n_cell)
    assert fg.node_ids.tolist() == list(range(g.n_cell)) * 2
    assert np.array_equal(fg.vertices[:, 0], dpos[fg.node_ids, 0] + g.T * cells)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_window_counts_closed_form(chain, n):
    fg = instantiate_window(chain, [(0, n)], wrap="open")
    assert len(fg.vertices) == n * chain.n_cell
    assert len(fg.edges) == n - 1


def test_window_vertex_count_invariant(examples):
    for g in examples.values():
        fg = instantiate_window(g, [(0, 3)] * g.d, wrap="periodic")
        assert len(fg.vertices) == 3 ** g.d * g.n_cell
        assert len(fg.edges) == 3 ** g.d * len(g.orbits)


def test_window_empty(chain):
    with pytest.raises(EmptyWindow):
        instantiate_window(chain, [(2, 2)])


def test_window_deterministic_order(examples):
    g = examples["ex1"]
    a = instantiate_window(g, [(0, 3)], wrap="clamped")
    b = instantiate_window(g, [(0, 3)], wrap="clamped")
    for field in ("vertices", "node_ids", "edges", "weights", "boundary_vertices",
                  "ghost_edges", "ghost_weights"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


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
