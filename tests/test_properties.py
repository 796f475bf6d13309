"""Property-based invariants over randomized graphs and fields."""

import dataclasses
import itertools
import math
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lattice_homog import (
    CellNode,
    DisconnectedGraph,
    EdgeOrbit,
    LatticeGraph,
    brute_force_cell_oracle,
    builtin_examples,
    compute_path_constants,
    connectedness_certificate,
    f_hom,
    graph_from_edges,
    homogenized_tensor,
    normalize_period,
    parse,
    serialize,
    validate,
    witness_path,
)

from lattice_homog.cell import DENSE_MAX_NODES, PCG_MIN_NODES
from lattice_homog.coarse import check_poincare_wirtinger, check_two_connectedness

from conftest import (cube_lattice, long_offset_chain, oracle_neighbours, plain_cg_tensor,
                      random_square_lattice)
from harness_reference import dense_worst, trial_worst


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
        # fall back to a chain through the cell's nodes and a bond from the
        # first node to its translate along every axis, so the graph is
        # connected and every bond spans at most T
        chain_orbits = [EdgeOrbit(a, b, (0,) * d, 1.0) for a, b in zip(nodes, nodes[1:])]
        chain_orbits += [EdgeOrbit(nodes[0], nodes[0], tuple(int(a == m) for a in range(d)), 1.0)
                         for m in range(d)]
        graph = LatticeGraph(d, k, T, nodes, chain_orbits)
        assert validate(graph).ok
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


@given(lattice_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_parse_ignores_line_order_and_orientation(graph, data):
    """Shuffled node and edge lines, some edges written reversed, parse to
    the same graph."""
    lines = serialize(graph).splitlines()
    nodes = [ln for ln in lines if ln.startswith("node ")]
    edges = [ln for ln in lines if ln.startswith("edge ")]
    flip = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    for e, orb in enumerate(graph.orbits):
        if flip[e]:
            rev = orb.reversed()
            shift = "".join(f"{o:+d}" for o in rev.offset) if any(rev.offset) else ""
            edges[e] = f"edge {rev.u} {rev.v}{shift} {rev.weight!r}"
    body = data.draw(st.permutations(nodes)) + data.draw(st.permutations(edges))
    assert parse("\n".join(lines[:3] + body) + "\n") == graph


@given(lattice_graphs())
@settings(max_examples=40, deadline=None)
def test_neighbors_symmetry_random(graph):
    for node in graph.nodes:
        for other, off, w in oracle_neighbours(graph, node):
            assert (node, tuple(-o for o in off), w) in oracle_neighbours(graph, other)


def _orbit_neighbours(graph):
    """Per cell node, (neighbour index, cell offset) for both ends of every
    orbit, in (orbit, end) order."""
    nbrs = [[] for _ in range(graph.n_cell)]
    for orb in graph.orbits:
        a, b = graph.node_index(orb.u), graph.node_index(orb.v)
        nbrs[a].append((b, orb.offset))
        nbrs[b].append((a, tuple(-o for o in orb.offset)))
    return nbrs


def _reaches_all(graph, cap=128):
    """Whether node 0 of cell 0 reaches every node of cell 0 and node 0 of
    every cell e_m, by a breadth-first search whose box of +-r cells starts
    at r = 4 and doubles up to `cap`.

    Among 8 591 connected graphs drawn at random from the family of
    lattice_graphs(max_offset=12) (d <= 2, T <= 3, at most 5 nodes and 6
    orbits), none needed r > 32.
    """
    from collections import deque
    nbrs = _orbit_neighbours(graph)
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


def _search_by_states(graph, source, lo, hi):
    """Breadth-first search over (node, cell) states from node `source` of
    cell 0, inside lo <= d-position <= hi, neighbours in (orbit, end) order
    and parents fixed on first discovery.  Returns path(node, cell): the
    states from the source, or None when the box does not reach it."""
    nbrs = _orbit_neighbours(graph)
    start = (source, (0,) * graph.d)
    parent = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        x, cell = state
        for y, off in nbrs[x]:
            ncell = tuple(c + o for c, o in zip(cell, off))
            if ((y, ncell) not in parent
                    and all(a <= p + graph.T * c <= b
                            for p, c, a, b in zip(graph.nodes[y].dpos, ncell, lo, hi))):
                parent[(y, ncell)] = state
                queue.append((y, ncell))

    def path(node, cell):
        state = (node, tuple(cell))
        if state not in parent:
            return None
        states = []
        while state is not None:
            states.append(state)
            state = parent[state]
        return states[::-1]
    return path


def _family_by_counter(paths):
    """(longest length, largest edge multiplicity) of a family of paths, or
    None when one of them is missing."""
    if None in paths:
        return None
    counts = Counter(tuple(sorted(edge)) for path in paths for edge in zip(path, path[1:]))
    return (max((len(path) - 1 for path in paths), default=0),
            max(counts.values(), default=1))


def _path_constants_by_states(graph):
    """compute_path_constants by one state search per source and family;
    M grows by T until every witness fits, which ends for a connected graph,
    and a disconnected one has no fit."""
    if not connectedness_certificate(graph, raise_on_failure=False).connected:
        return "no fit"
    T, d, n = graph.T, graph.d, graph.n_cell
    for M in itertools.count(T, T):
        worst, fits = (0, 0, 1), True
        for m in range(d):
            unit = tuple(int(a == m) for a in range(d))
            hi = [T - 1 + (M - 1) + T * u for u in unit]
            family = _family_by_counter([_search_by_states(graph, i, [-(M - 1)] * d, hi)(i, unit)
                                         for i in range(n)])
            if family is None:
                fits = False
            elif family[0] * family[1] > worst[0]:
                worst = (family[0] * family[1],) + family
        paths = []
        for i in range(n):
            path_to = _search_by_states(graph, i, [-(M - 1)] * d, [T - 1 + (M - 1)] * d)
            paths += [path_to(j, (0,) * d) for j in range(n) if j != i]
        pair = _family_by_counter(paths)
        if fits and pair is not None:
            min_w = min(o.weight for o in graph.orbits)
            return (worst[0] / n, pair[0] * pair[1] / n / min_w, M, worst[1], pair[0],
                    min_w, worst[2], pair[1])


@pytest.mark.parametrize("max_offset", [1, 3])
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_path_constants_match_state_search(max_offset, data):
    graph = data.draw(lattice_graphs(max_offset=max_offset))
    _check_path_constants_match_state_search(graph)


def test_path_constants_match_state_search_beyond_eight_periods():
    # the witnesses of the chain first fit at M = 9 T; st.data() draws take
    # no explicit @example, so the chain is its own case
    _check_path_constants_match_state_search(long_offset_chain())


def _check_path_constants_match_state_search(graph):
    # a disconnected draw has no fit on either route
    try:
        got = dataclasses.astuple(compute_path_constants(graph))
    except DisconnectedGraph:
        got = "no fit"
    assert got == _path_constants_by_states(graph)


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


@given(lattice_graphs(connected_only=True))
@settings(max_examples=40, deadline=None)
def test_small_cell_tensor_matches_plain_cg_random(graph):
    assert graph.n_cell <= DENSE_MAX_NODES
    A, ref = homogenized_tensor(graph), plain_cg_tensor(graph)
    assert np.abs(A.entries - ref).max() <= 1e-12 * np.abs(ref).max()
    assert all(f.iterations <= 1 for f in A.correctors)


@given(lattice_graphs(connected_only=True), st.integers(1, 6),
       st.lists(st.floats(-3, 3, allow_nan=False).filter(lambda a: a == 0 or abs(a) > 1e-3),
                min_size=2, max_size=2))
@settings(max_examples=40, deadline=None)
def test_small_cell_f_hom_is_the_tensor_quadratic_form(graph, reps, z):
    # re-tiled up to the dense ceiling, so the direct route meets cells of
    # every size it serves
    while reps > 1 and graph.n_cell * reps ** graph.d > DENSE_MAX_NODES:
        reps -= 1
    g = normalize_period(graph, graph.T * reps)
    z = np.array(z[:g.d])
    q = homogenized_tensor(g).quadratic_form(z)
    # relative to the affine energy summed in absolute values, the size of
    # the terms both values cancel: on a degenerate direction q is 0
    scale = 2.0 * (abs(z) @ abs(g.operator.C) @ abs(z)) / g.T ** g.d
    assert abs(f_hom(g, z) - q) <= 1e-12 * scale


@given(lattice_graphs(connected_only=True), st.integers(0, 2 ** 32 - 1), st.integers(1, 61))
@example(graph=builtin_examples()["ex5"], seed=5, trials=61)
@example(graph=builtin_examples()["ex3"], seed=2 ** 40 + 3, trials=37)
# the checkerboard is constant on this cell: its deviation must sum to 0, not
# to a rounding residue over a zero energy
@example(graph=graph_from_edges(2, 0, 2, [(0, 0), (0, 1), (1, 1)],
                                [((0, 0), (0, 0), (0, 1), 1.0), ((0, 0), (0, 0), (1, 0), 1.0),
                                 ((0, 0), (0, 1), (0, 0), 1.0), ((0, 1), (1, 1), (0, 0), 1.0)]),
         seed=0, trials=4)
@settings(max_examples=30, deadline=None)
def test_exact_local_ratios_bound_the_trial_reference(graph, seed, trials):
    # every trial field's ratio is at most the exact supremum, on the same
    # regions, and the dense route finds the same supremum
    trial, dense = trial_worst(graph, trials, seed), dense_worst(graph)
    exact = {"two_connectedness": check_two_connectedness(graph, trials=trials, seed=seed),
             "poincare_wirtinger": check_poincare_wirtinger(graph, trials=trials, seed=seed)}
    for harness, rep in exact.items():
        assert rep.holds, (harness, rep.worst_ratio)
        assert trial[harness][0] <= rep.worst_ratio * (1 + 1e-12), harness
        assert rep.worst_ratio == pytest.approx(dense[harness], rel=1e-10, abs=0), harness


@given(lattice_graphs(connected_only=True), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=12, deadline=None)
def test_preconditioned_tensor_matches_plain_cg_random(graph, seed):
    # re-tiled to at least PCG_MIN_NODES nodes, every orbit reweighted, so
    # the mean-weight reference is inexact
    reps = 2
    while graph.n_cell * reps ** graph.d < PCG_MIN_NODES:
        reps += 1
    tiled = normalize_period(graph, graph.T * reps)
    weights = np.random.default_rng(seed).uniform(0.25, 4.0, len(tiled.orbits))
    g = LatticeGraph(tiled.d, tiled.k, tiled.T, tiled.nodes,
                     [EdgeOrbit(o.u, o.v, o.offset, float(w))
                      for o, w in zip(tiled.orbits, weights)], M=tiled.M)
    assert g.operator.preconditioner is not None
    A, ref = homogenized_tensor(g).entries, plain_cg_tensor(g)
    assert np.abs(A - ref).max() <= 1e-9 * np.abs(ref).max()


def _window_by_loops(graph, window):
    """The window by a loop over cells and orbits: (positions, edges,
    crossings), a crossing being (inside vertex, outside position, outside
    node, weight) for an edge with one end outside the window."""
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

    edges, crossings = [], []
    for cell in cells:
        for orb in graph.orbits:
            u, v = graph.node_index(orb.u), graph.node_index(orb.v)
            far = tuple(c + o for c, o in zip(cell, orb.offset))
            if inside(far):
                edges.append((index[(cell, u)], index[(far, v)], orb.weight))
            else:
                crossings.append((index[(cell, u)], position(orb.v, far), v, orb.weight))
            near = tuple(c - o for c, o in zip(cell, orb.offset))
            if not inside(near):
                crossings.append((index[(cell, v)], position(orb.u, near), u, orb.weight))
    return positions, edges, crossings


@given(lattice_graphs(max_offset=2))
@example(cube_lattice(np.random.default_rng(1)))
@example(long_offset_chain())
@settings(max_examples=60, deadline=None)
def test_window_matches_cell_loop(graph):
    from lattice_homog import instantiate_window
    window = [(-1, 2)] + [(0, 2)] * (graph.d - 1)
    fg = instantiate_window(graph, window)
    positions, edges, _ = _window_by_loops(graph, window)
    assert [tuple(p) for p in fg.positions.tolist()] == positions
    assert list(zip(*fg.ends.T.tolist(), fg.weights.tolist())) == edges


def _window_problem_by_loops(graph, K):
    """The arrays of build_window_problem by a loop over _window_by_loops:
    (positions, ends, coef, pinned) of the window padded by the longest
    offset, each edge weighted by the number of its ends in [0, KT - 1]^d
    and kept when that is positive, and each vertex nearer than 2 sqrt(d) T
    to the box boundary pinned."""
    d, T = graph.d, graph.T
    r = max((abs(o) for orb in graph.orbits for o in orb.offset), default=0)
    positions, edges, _ = _window_by_loops(graph, [(-r, K + r)] * d)
    ends, coef = [], []
    for a, b, w in edges:
        count = sum(all(0 <= c <= K * T - 1 for c in positions[x]) for x in (a, b))
        if count:
            ends.append([a, b])
            coef.append(w * count)
    pinned = [min(min(c, K * T - c) for c in p) < 2.0 * math.sqrt(d) * T for p in positions]
    return positions, ends, coef, pinned


@given(lattice_graphs(max_offset=2), st.integers(2, 6),
       st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=3, max_size=3))
@example(cube_lattice(np.random.default_rng(1)), 3, [1.0, -0.5, 0.25])
@example(cube_lattice(np.random.default_rng(1)), 4, [0.3, -0.7, 0.1])
@example(random_square_lattice(3, np.random.default_rng(2)), 5, [0.3, -0.7, 0.0])
@example(long_offset_chain(), 12, [1.0, 0.0, 0.0])
@settings(max_examples=60, deadline=None)
def test_window_problem_matches_cell_loop(graph, K, z):
    from lattice_homog.asymptotic import build_window_problem
    z = np.array(z[:graph.d])
    problem = build_window_problem(graph, z, K)
    positions, ends, coef, pinned = _window_problem_by_loops(graph, K)
    assert [tuple(p) for p in problem.positions.tolist()] == positions
    assert problem.ends.tolist() == ends and problem.coef.tolist() == coef
    assert problem.pinned.tolist() == pinned
    # z . x summed left to right over the axes, to the last bit: a matrix
    # product rounds as its BLAS kernel does
    values = []
    for p in positions:
        value = 0.0
        for c, slope in zip(p, z.tolist()):
            value += c * slope
        values.append(value)
    assert problem.values.tolist() == values


@given(lattice_graphs(connected_only=True, max_offset=2), st.integers(2, 8),
       st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=2, max_size=2))
@settings(max_examples=60, deadline=None)
def test_window_value_matches_dense_loop(graph, K, z):
    # the clamped window by the cell loop: window edges count twice (ordered
    # pairs), crossing edges once; the outside ends and every vertex within
    # 2 sqrt(d) T of the box boundary are pinned at z . x
    from lattice_homog.asymptotic import finite_window_value
    d, T = graph.d, graph.T
    z = np.array(z[:d])
    positions, edges, crossings = _window_by_loops(graph, [(0, K)] * d)
    outside = sorted({(p, i) for _, p, i, _ in crossings})
    where = {key: len(positions) + j for j, key in enumerate(outside)}
    x = np.array(positions + [p for p, _ in outside], dtype=float).reshape(-1, d)
    pairs = [(a, b, 2.0 * w) for a, b, w in edges]
    pairs += [(a, where[(p, i)], w) for a, p, i, w in crossings]
    L = np.zeros((len(x), len(x)))
    for a, b, c in pairs:
        L[[a, b], [a, b]] += c
        L[[a, b], [b, a]] -= c
    dist = np.minimum(x, K * T - x).min(axis=1)
    pinned = dist < 2.0 * np.sqrt(d) * T
    pinned[len(positions):] = True
    values = x @ z
    free = ~pinned
    if free.any():
        values[free] = np.linalg.solve(L[np.ix_(free, free)],
                                       -L[np.ix_(free, pinned)] @ values[pinned])
    ref = sum(c * (values[a] - values[b]) ** 2 for a, b, c in pairs) / (K * T) ** d
    assert finite_window_value(graph, z, K) == pytest.approx(ref, rel=1e-10, abs=1e-12)


@given(lattice_graphs(max_offset=2), st.integers(-3, 0), st.integers(0, 4))
@example(normalize_period(random_square_lattice(2, np.random.default_rng(1)), 4), -1, 5)
@example(cube_lattice(np.random.default_rng(1)), -1, 4)
@example(long_offset_chain(), -2, 12)
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


def _canonical_by_objects(orb):
    """The object canonicalization: the smaller endpoint first, and a
    self-orbit with the lexicographically positive offset."""
    back = tuple(-o for o in orb.offset)
    if orb.v < orb.u or (orb.v == orb.u and orb.offset < back):
        return EdgeOrbit(orb.v, orb.u, back, orb.weight)
    return orb


def _retile_by_loops(graph, T2):
    """normalize_period by nested loops over nodes, orbits and shifts, the
    orbits canonicalized and sorted here: (nodes, orbits)."""
    from itertools import product
    T, d = graph.T, graph.d
    shifts = list(product(range(T2 // T), repeat=d))
    nodes = [CellNode(tuple(p + T * s for p, s in zip(node.dpos, shift)), node.kpos)
             for node in graph.nodes for shift in shifts]
    orbits = []
    for orb in graph.orbits:
        for shift in shifts:
            u = CellNode(tuple(p + T * s for p, s in zip(orb.u.dpos, shift)), orb.u.kpos)
            far = tuple(p + T * (s + o) for p, s, o in zip(orb.v.dpos, shift, orb.offset))
            off = tuple(c // T2 for c in far)
            v = CellNode(tuple(c - T2 * o for c, o in zip(far, off)), orb.v.kpos)
            orbits.append(_canonical_by_objects(EdgeOrbit(u, v, off, orb.weight)))
    return tuple(sorted(nodes)), tuple(sorted(orbits, key=lambda o: (o.u, o.v, o.offset)))


@pytest.mark.parametrize("max_offset", [1, 3])
@given(st.data(), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_normalize_period_matches_nested_loops(max_offset, data, reps):
    graph = data.draw(lattice_graphs(max_offset=max_offset))
    T2 = reps * graph.T
    got = normalize_period(graph, T2)
    nodes, orbits = _retile_by_loops(graph, T2)
    assert got.nodes == nodes and got.orbits == orbits
    ref = LatticeGraph(graph.d, graph.k, T2, nodes, orbits, M=graph.M)
    assert got == ref and serialize(got) == serialize(ref)
    for node in got.nodes:
        assert type(node.dpos) is tuple and type(node.kpos) is tuple
        assert all(type(c) is int for c in node.dpos + node.kpos)
    for orb in got.orbits:
        assert type(orb.offset) is tuple and all(type(c) is int for c in orb.offset)
        assert type(orb.weight) is float
