"""Property-based invariants over randomized graphs and fields."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from lattice_homog import (
    CellNode,
    EdgeOrbit,
    LatticeGraph,
    brute_force_cell_oracle,
    f_hom,
    graph_from_edges,
    neighbors,
    normalize_period,
    parse,
    serialize,
    validate,
    witness_path,
)

from conftest import random_square_lattice


@st.composite
def lattice_graphs(draw, connected_only=False, max_offset=1):
    d = draw(st.integers(1, 2))
    T = draw(st.integers(1, 3))
    k = draw(st.integers(0, 1))
    max_nodes = min(5, T ** d * 2 ** k)
    n_nodes = draw(st.integers(1, max_nodes))
    pool = []
    for dpos in _coords(T, d):
        for kpos in _coords(2, k):
            pool.append(CellNode(dpos, kpos))
    idx = draw(st.permutations(range(len(pool))))
    nodes = [pool[i] for i in idx[:n_nodes]]
    n_orbits = draw(st.integers(1, 6))
    orbits = {}
    for _ in range(n_orbits):
        u = nodes[draw(st.integers(0, n_nodes - 1))]
        v = nodes[draw(st.integers(0, n_nodes - 1))]
        off = tuple(draw(st.integers(-max_offset, max_offset)) for _ in range(d))
        w = draw(st.floats(0.25, 4.0, allow_nan=False))
        orb = EdgeOrbit(u, v, off, w).canonical()
        dd, dk = orb.displacement(T)
        if any(dd + dk):
            orbits[(orb.u, orb.v, orb.offset)] = orb
    if not orbits:
        orb = EdgeOrbit(nodes[0], nodes[0], (1,) + (0,) * (d - 1), 1.0)
        orbits[(orb.u, orb.v, orb.offset)] = orb
    graph = LatticeGraph(d, k, T, nodes, list(orbits.values()))
    if connected_only and not validate(graph).ok:
        # fall back to a guaranteed-valid single-chain graph on the same nodes
        chain_orbits = []
        for a, b in zip(nodes, nodes[1:]):
            chain_orbits.append(EdgeOrbit(a, b, (0,) * d, 1.0))
        chain_orbits.append(EdgeOrbit(nodes[-1], nodes[0],
                                      (1,) + (0,) * (d - 1), 1.0))
        graph = LatticeGraph(d, k, T, nodes, chain_orbits)
    return graph


def _coords(extent, arity):
    from itertools import product
    return list(product(range(extent), repeat=arity))


@given(lattice_graphs())
@settings(max_examples=60, deadline=None)
def test_serialize_parse_roundtrip(graph):
    text = serialize(graph)
    again = parse(text)
    assert again == graph
    assert serialize(again) == text


@given(lattice_graphs())
@settings(max_examples=40, deadline=None)
def test_neighbors_symmetry_random(graph):
    for node in graph.nodes:
        for other, off, w in neighbors(graph, node):
            assert (node, tuple(-o for o in off), w) in neighbors(graph, other)


def _reaches_all(graph, cap=128):
    """Whether node 0 of cell 0 reaches every node of cell 0 and node 0 of
    every cell e_m, by a breadth-first search whose box of +-r cells starts
    at r = 4 and doubles up to `cap`.

    Among 8 591 connected graphs drawn at random from the family of
    lattice_graphs(max_offset=12) (d <= 2, T <= 3, at most 5 nodes and 6
    orbits), none needed r > 32.
    """
    from collections import deque
    nbrs = [[] for _ in range(graph.n_cell)]
    for orb in graph.orbits:
        a, b = graph.node_index(orb.u), graph.node_index(orb.v)
        nbrs[a].append((b, orb.offset))
        nbrs[b].append((a, tuple(-o for o in orb.offset)))
    zero = (0,) * graph.d
    targets = ({(j, zero) for j in range(graph.n_cell)}
               | {(0, tuple(int(a == m) for a in range(graph.d))) for m in range(graph.d)})
    seen = {(0, zero)}
    queue, outside, radius = deque(seen), [], 4
    while True:
        while queue:
            x, cell = queue.popleft()
            for y, off in nbrs[x]:
                state = (y, tuple(c + o for c, o in zip(cell, off)))
                if state not in seen:
                    seen.add(state)
                    (queue if max(map(abs, state[1])) <= radius else outside).append(state)
        if targets <= seen:
            return True
        if not outside or radius >= cap:
            return False
        radius *= 2
        queue.extend(s for s in outside if max(map(abs, s[1])) <= radius)
        outside = [s for s in outside if max(map(abs, s[1])) > radius]


@given(lattice_graphs(max_offset=12), st.data())
@example(graph_from_edges(1, 0, 1, [(0,)], [((0,), (0,), (9,), 1.0),
                                            ((0,), (0,), (10,), 1.0)]), None)
@example(graph_from_edges(1, 0, 1, [(0,)], [((0,), (0,), (2,), 1.0)]), None)
@settings(max_examples=40, deadline=None)
def test_validate_and_witness_paths_large_offsets(graph, data):
    report = validate(graph)
    verdict = next(c.passed for c in report.checks if c.name == "connectedness")
    assert verdict == _reaches_all(graph)
    if not verdict:
        return
    src = graph.nodes[0] if data is None else data.draw(st.sampled_from(graph.nodes))
    tgt = graph.nodes[-1] if data is None else data.draw(st.sampled_from(graph.nodes))
    m = 0 if data is None else data.draw(st.integers(0, graph.d - 1))
    path = witness_path(graph, src, tgt, m)
    assert path[0] == (src, (0,) * graph.d)
    assert path[-1] == (tgt, tuple(int(a == m) for a in range(graph.d)))
    for (a, ca), (b, cb) in zip(path, path[1:]):
        step = tuple(y - x for x, y in zip(ca, cb))
        assert any((o.u, o.v, o.offset) == (a, b, step)
                   or (o.u, o.v, o.offset) == (b, a, tuple(-s for s in step))
                   for o in graph.orbits), (a, ca, b, cb)


@given(lattice_graphs(connected_only=True),
       st.floats(-3, 3, allow_nan=False).filter(lambda a: abs(a) > 1e-3))
@settings(max_examples=25, deadline=None)
def test_homogeneity_random(graph, alpha):
    z = np.zeros(graph.d)
    z[0] = 1.0
    base = f_hom(graph, z)
    scaled = f_hom(graph, alpha * z)
    assert abs(scaled - alpha ** 2 * base) <= 1e-9 * max(abs(scaled), 1e-12)


@given(lattice_graphs(connected_only=True))
@settings(max_examples=25, deadline=None)
def test_solver_matches_oracle_random(graph):
    z = np.zeros(graph.d)
    z[0] = 1.0
    ours = f_hom(graph, z)
    ref = brute_force_cell_oracle(graph, z)
    assert abs(ours - ref) <= 1e-8 * max(abs(ref), 1e-12)


def _window_by_loops(graph, window, wrap):
    """instantiate_window by a loop over cells and orbits: (positions, edges, ghosts)."""
    from itertools import product
    cells = list(product(*(range(lo, hi) for lo, hi in window)))
    index, positions = {}, []
    for cell in cells:
        for i, node in enumerate(graph.nodes):
            index[(cell, i)] = len(positions)
            positions.append(tuple(p + graph.T * c for p, c in zip(node.dpos, cell)))

    def inside(cell):
        return all(lo <= c < hi for (lo, hi), c in zip(window, cell))

    def position(node, cell):
        return tuple(p + graph.T * c for p, c in zip(node.dpos, cell))

    edges, ghosts = [], []
    for cell in cells:
        for orb in graph.orbits:
            u, v = graph.node_index(orb.u), graph.node_index(orb.v)
            far = tuple(c + o for c, o in zip(cell, orb.offset))
            if wrap == "periodic":
                far = tuple(lo + (c - lo) % (hi - lo) for (lo, hi), c in zip(window, far))
            if inside(far):
                edges.append((index[(cell, u)], index[(far, v)], orb.weight))
            elif wrap == "clamped":
                ghosts.append((index[(cell, u)], position(orb.v, far), v, orb.weight))
            near = tuple(c - o for c, o in zip(cell, orb.offset))
            if wrap == "clamped" and not inside(near):
                ghosts.append((index[(cell, v)], position(orb.u, near), u, orb.weight))
    return positions, edges, ghosts


@given(lattice_graphs(), st.sampled_from(["open", "clamped", "periodic"]))
@settings(max_examples=60, deadline=None)
def test_window_matches_cell_loop(graph, wrap):
    from lattice_homog import instantiate_window
    window = [(-1, 2)] + [(0, 2)] * (graph.d - 1)
    fg = instantiate_window(graph, window, wrap=wrap)
    positions, edges, ghosts = _window_by_loops(graph, window, wrap)
    assert [tuple(p) for p in fg.vertices.tolist()] == positions
    assert list(zip(*fg.edges.T.tolist(), fg.weights.tolist())) == edges
    got = sorted((a, tuple(fg.boundary_vertices[g].tolist()), w)
                 for (a, g), w in zip(fg.ghost_edges.tolist(), fg.ghost_weights.tolist()))
    assert got == sorted((a, p, w) for a, p, _, w in ghosts)
    assert len(fg.boundary_vertices) == len({(p, i) for _, p, i, _ in ghosts})


@given(lattice_graphs(), st.integers(-3, 0), st.integers(0, 4))
@example(normalize_period(random_square_lattice(2, np.random.default_rng(1)), 4), -1, 5)
@settings(max_examples=60, deadline=None)
def test_position_box_matches_position_loop(graph, lo, hi):
    # vertices by position then node, edges by anchor vertex then orbit
    from itertools import product
    from lattice_homog.graph import position_box
    pos, node_ids, ends, weights = position_box(graph, [lo] * graph.d, [hi] * graph.d)
    index = {}
    for p in product(range(lo, hi + 1), repeat=graph.d):
        for i, node in enumerate(graph.nodes):
            if all((a - b) % graph.T == 0 for a, b in zip(p, node.dpos)):
                index[(p, i)] = len(index)
    assert list(zip(map(tuple, pos.tolist()), node_ids.tolist())) == list(index)
    edges = []
    for (p, i), a in index.items():
        for orb in graph.orbits:
            if graph.node_index(orb.u) == i:
                dd, _ = orb.displacement(graph.T)
                b = index.get((tuple(x + y for x, y in zip(p, dd)), graph.node_index(orb.v)))
                if b is not None:
                    edges.append((a, b, orb.weight))
    assert list(zip(*ends.T.tolist(), weights.tolist())) == edges
