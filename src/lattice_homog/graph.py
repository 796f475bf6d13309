"""Periodic graphs on cylindrical lattice subsets.

A graph lives on a node set X inside Z^d x {0..M-1}^k, is T-periodic in the
first d coordinate directions and carries positive weights on an edge set
that is invariant under the same translations.  Everything is stored per
fundamental cell: nodes with d-coordinates in [0, T) and one representative
per translation orbit of edges.

Finite pieces of the infinite graph (windows, boxes, the graph that every
path search runs on) are broadcast from the PeriodicOperator by CellBox;
`laplacian`, `pinned_reduction` and `pinned_solve` are the one Laplacian
assembly and the one pinned-vertex elimination behind every finite problem.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .bloch import fft_preconditioner
from .errors import DisconnectedGraph, EmptyWindow, NoConvergence, UnknownNode


@dataclass(frozen=True, order=True)
class CellNode:
    """One node of the fundamental cell: d periodic coords, k bounded coords."""

    dpos: tuple
    kpos: tuple

    def __str__(self):
        return "(" + " ".join(str(c) for c in self.dpos + self.kpos) + ")"


@dataclass(frozen=True, order=True)
class EdgeOrbit:
    """One undirected translation orbit of edges.

    The represented edge joins `u` (in the cell) to `v` translated by
    `offset` cells, i.e. the node at v.dpos + T*offset.  Weight is shared by
    the whole orbit.
    """

    u: CellNode
    v: CellNode
    offset: tuple
    weight: float

    def displacement(self, T):
        """Geometric displacement (d-part, k-part) of the represented edge."""
        dd = tuple(self.v.dpos[m] + T * self.offset[m] - self.u.dpos[m]
                   for m in range(len(self.offset)))
        dk = tuple(b - a for a, b in zip(self.u.kpos, self.v.kpos))
        return dd, dk

    def reversed(self):
        return EdgeOrbit(self.v, self.u, tuple(-o for o in self.offset), self.weight)

    def canonical(self):
        """Orientation with the lexicographically smaller endpoint first.

        Self-orbits (u == v) keep the lexicographically positive offset so
        that serialization is deterministic.
        """
        if self.v < self.u:
            return self.reversed()
        if self.v == self.u and self.offset < tuple(-o for o in self.offset):
            return self.reversed()
        return self


class LatticeGraph:
    """Immutable periodic graph; safe to share, all operations are pure."""

    def __init__(self, d, k, T, nodes, orbits, M=None):
        if d < 1:
            raise ValueError("d must be >= 1")
        if k < 0:
            raise ValueError("k must be >= 0")
        if T < 1:
            raise ValueError("T must be >= 1")
        nodes = tuple(sorted(nodes))
        for n in nodes:
            if len(n.dpos) != d or len(n.kpos) != k:
                raise ValueError(f"node {n} has wrong arity for d={d}, k={k}")
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate nodes")
        canon = []
        seen = {}
        for orb in orbits:
            if len(orb.offset) != d:
                raise ValueError(f"orbit offset {orb.offset} has wrong arity")
            c = orb.canonical()
            key = (c.u, c.v, c.offset)
            if key in seen:
                raise ValueError(f"duplicate orbit {key}")
            seen[key] = c
            canon.append(c)
        self.d = d
        self.k = k
        self.T = T
        self.nodes = nodes
        self.orbits = tuple(sorted(canon, key=lambda o: (o.u, o.v, o.offset)))
        if M is None:
            M = max((max(n.kpos) + 1 for n in nodes if n.kpos), default=1)
        self.M = max(int(M), 1)
        self._index = {n: i for i, n in enumerate(nodes)}
        for orb in self.orbits:
            if orb.u not in self._index or orb.v not in self._index:
                raise ValueError(f"orbit endpoint not among nodes: {orb}")

    @property
    def n_cell(self):
        return len(self.nodes)

    @cached_property
    def operator(self):
        """The graph's PeriodicOperator, built on first use and then shared."""
        return PeriodicOperator(self)

    def node_index(self, node):
        try:
            return self._index[node]
        except KeyError:
            raise UnknownNode(f"node {node} is not in the fundamental cell") from None

    def __eq__(self, other):
        return (isinstance(other, LatticeGraph)
                and (self.d, self.k, self.T, self.M) == (other.d, other.k, other.T, other.M)
                and self.nodes == other.nodes
                and self.orbits == other.orbits)

    def __repr__(self):
        return (f"LatticeGraph(d={self.d}, k={self.k}, T={self.T}, M={self.M}, "
                f"{len(self.nodes)} nodes, {len(self.orbits)} orbits)")

    def max_displacement(self):
        """R: largest max-norm of an edge displacement (0 for edgeless graphs)."""
        R = 0
        for orb in self.orbits:
            dd, dk = orb.displacement(self.T)
            R = max(R, max(abs(c) for c in dd + dk))
        return R


class PeriodicOperator:
    """Orbit arrays and single-count cell quadratic data, shared and read-only.

    Orbit e joins node u[e] to node v[e] of the cell `offset[e]` away, with
    weight w[e] and d-displacement disp[e]; node i sits at d-position
    dpos[i].  With D the incidence matrix (row e: -1 at u[e], +1 at v[e]) and
    W = diag(w), the energy of z . x + chi is chi^T L chi + 2 (B z) . chi +
    z^T C z, where L = D^T W D (n x n), B = D^T W disp (n x d) and
    C = disp^T W disp (d x d).

    `preconditioner` is built on first use: the FFT preconditioner of the
    cell's smallest sub-period t | T (bloch.py), an approximate inverse of
    L for the corrector CG, or None when the cell re-tiles no smaller one.
    """

    def __init__(self, graph):
        n, d, index = graph.n_cell, graph.d, graph._index
        self.T = graph.T
        orbits = graph.orbits
        self.u = np.array([index[o.u] for o in orbits], dtype=np.intp)
        self.v = np.array([index[o.v] for o in orbits], dtype=np.intp)
        self.w = np.array([o.weight for o in orbits], dtype=float)
        self.offset = np.array([o.offset for o in orbits], dtype=np.intp).reshape(-1, d)
        self.dpos = np.array([node.dpos for node in graph.nodes], dtype=np.intp).reshape(n, d)
        self.kpos = np.array([node.kpos for node in graph.nodes],
                             dtype=np.intp).reshape(n, graph.k)
        self.disp = (self.dpos[self.v] + graph.T * self.offset - self.dpos[self.u]).astype(float)

        wdisp = self.w[:, None] * self.disp
        self.L = laplacian(n, np.column_stack([self.u, self.v]), self.w)
        self.B = np.zeros((n, d))
        np.add.at(self.B, self.v, wdisp)
        np.add.at(self.B, self.u, -wdisp)
        self.C = self.disp.T @ wdisp
        for a in (self.u, self.v, self.w, self.offset, self.dpos, self.kpos, self.disp,
                  self.B, self.C, self.L.data):
            a.flags.writeable = False

    @cached_property
    def preconditioner(self):
        return fft_preconditioner(self)


def neighbors(graph, node):
    """All neighbours of `node`, both orientations of every incident orbit.

    Returns a list of (cell node, cell offset, weight) in orbit order; the
    actual neighbour position is neighbour.dpos + T * offset.
    """
    i = graph.node_index(node)
    return [(graph.nodes[j], off, w) for j, off, w in neighbor_lists(graph)[i]]


# ---------------------------------------------------------------------------
# connectivity


@dataclass
class ConnectivityResult:
    """Exact connectivity verdict with its proof; paths come from `witness_path`."""

    connected: bool
    quotient_connected: bool
    lattice_index: int          # |det| of the translation subgroup basis, 0 if rank-deficient
    components: list            # node partitions of the quotient graph
    sublattice_basis: list      # reduced integer basis rows of the offset subgroup

    @property
    def failure(self):
        if self.connected:
            return None
        return "quotient" if not self.quotient_connected else "sublattice"


def _hnf_rows(vectors, d):
    """Row-echelon integer basis of the subgroup of Z^d spanned by `vectors`.

    Column-by-column Euclidean elimination with exact integer arithmetic;
    every step is an invertible integer row operation, so the returned rows
    generate the same subgroup.  Pivot columns are strictly increasing.
    """
    work = [list(v) for v in vectors if any(v)]
    basis = []
    for c in range(d):
        pool = [r for r in work if r[c] != 0]
        work = [r for r in work if r[c] == 0]
        while len(pool) > 1:
            pool.sort(key=lambda r: abs(r[c]))
            pivot, remainder = pool[0], pool[1:]
            pool = [pivot]
            for r in remainder:
                q = r[c] // pivot[c]
                r2 = [a - q * b for a, b in zip(r, pivot)]
                if r2[c] != 0:
                    pool.append(r2)
                elif any(r2):
                    work.append(r2)
        if pool:
            basis.append(pool[0])
    return basis


def neighbor_lists(graph):
    """Per cell node, (neighbour index, cell offset, weight) for both ends of
    every orbit, in (orbit, end) order (forward end first), as box_adjacency rows."""
    nbrs = [[] for _ in range(graph.n_cell)]
    for orb in graph.orbits:
        a, b = graph._index[orb.u], graph._index[orb.v]
        nbrs[a].append((b, orb.offset, orb.weight))
        nbrs[b].append((a, tuple(-o for o in orb.offset), orb.weight))
    return nbrs


def _quotient_components(nbrs, d):
    """Components of the quotient graph, and per node the summed cell offset
    of the breadth-first tree path from the first node of its component."""
    pot = [None] * len(nbrs)
    comps = []
    for s in range(len(nbrs)):
        if pot[s] is not None:
            continue
        comp = []
        queue = deque([s])
        pot[s] = (0,) * d
        while queue:
            x = queue.popleft()
            comp.append(x)
            for y, off, _ in nbrs[x]:
                if pot[y] is None:
                    pot[y] = tuple(p + o for p, o in zip(pot[x], off))
                    queue.append(y)
        comps.append(sorted(comp))
    return comps, pot


def connectedness_certificate(graph, raise_on_failure=True):
    """Certify connectedness of the infinite periodic graph.

    The graph is connected iff (a) the quotient multigraph on cell nodes is
    connected and (b) closed-walk offset sums generate all of Z^d.  (b) is
    decided exactly from the reduced integer basis of the cycle-offset
    subgroup.  Neither step searches the infinite graph: a path between two
    of its vertices comes from `witness_path` on demand.
    """
    if graph.n_cell == 0:
        raise ValueError("graph has no nodes")
    comps, pot = _quotient_components(neighbor_lists(graph), graph.d)
    quotient_ok = len(comps) == 1

    lattice_index = 0
    basis = []
    if quotient_ok:
        # fundamental cycle offsets from the spanning-tree potentials
        cycles = []
        for orb in graph.orbits:
            a, b = graph.node_index(orb.u), graph.node_index(orb.v)
            vec = tuple(pot[a][m] + orb.offset[m] - pot[b][m] for m in range(graph.d))
            if any(vec):
                cycles.append(vec)
        basis = _hnf_rows(cycles, graph.d)
        if len(basis) == graph.d:
            det = 1
            for row in basis:
                det *= row[next(i for i, x in enumerate(row) if x != 0)]
            lattice_index = abs(det)

    connected = quotient_ok and lattice_index == 1
    result = ConnectivityResult(connected, quotient_ok, lattice_index,
                                [[graph.nodes[i] for i in comp] for comp in comps],
                                basis)
    if not connected and raise_on_failure:
        if not quotient_ok:
            raise DisconnectedGraph(
                f"quotient graph has {len(comps)} components",
                reason="quotient", detail=result.components)
        raise DisconnectedGraph(
            "translation offsets generate a proper sublattice "
            f"(index {lattice_index if lattice_index else 'infinite'})",
            reason="sublattice", detail=basis)
    return result


def witness_path(graph, src, tgt, m):
    """A path from node `src` of cell 0 to node `tgt` of cell e_m.

    It is a breadth-first tree path on box_adjacency in a box of +-r cells,
    r = 4 and doubling until one fits, which ends because the graph is
    certified connected first.  Returns the path as a list of (CellNode,
    cell tuple).  Raises DisconnectedGraph when the graph is not connected.
    """
    if not 0 <= m < graph.d:
        raise ValueError(f"axis {m} is not in 0..{graph.d - 1}")
    connectedness_certificate(graph)
    d, T = graph.d, graph.T
    nodes = np.array([graph.node_index(src), graph.node_index(tgt)])
    cells = np.outer([0, 1], np.eye(d, dtype=np.intp)[m])
    radius = 4
    while True:
        box, adjacency = box_adjacency(graph, [-radius * T] * d, [(radius + 1) * T - 1] * d)
        source, target = box.index(cells, nodes)
        _, pred = breadth_first_order(adjacency, source, directed=True,
                                     return_predecessors=True)
        if target >= 0 and pred[target] >= 0:
            path = [target]
            while path[-1] != source:
                path.append(pred[path[-1]])
            return [(graph.nodes[box.node_ids[x]], tuple(box._cells[x // graph.n_cell].tolist()))
                    for x in reversed(path)]
        radius *= 2


# ---------------------------------------------------------------------------
# validation


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class ValidationReport:
    checks: list
    R: int

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "ok": self.ok,
            "R": self.R,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in self.checks],
        }


def validate(graph):
    """Check the standing assumptions; failures are reported, not raised."""
    checks = []

    bad = [n for n in graph.nodes
           if any(not (0 <= c < graph.T) for c in n.dpos)
           or any(not (0 <= c < graph.M) for c in n.kpos)]
    checks.append(CheckResult(
        "node-ranges", not bad,
        "all node coordinates in range" if not bad else f"out of range: {bad[:3]}"))

    bad_w = [o for o in graph.orbits if not (o.weight > 0 and math.isfinite(o.weight))]
    checks.append(CheckResult(
        "weight-positivity", not bad_w,
        "all weights positive" if not bad_w else f"non-positive weight on {bad_w[0]}"))

    loops = [o for o in graph.orbits
             if not any(o.displacement(graph.T)[0] + o.displacement(graph.T)[1])]
    checks.append(CheckResult(
        "no-self-loop", not loops,
        "no zero-displacement orbit" if not loops else f"self loop: {loops[0]}"))

    R = graph.max_displacement()
    checks.append(CheckResult(
        "range-bound", R <= graph.T,
        f"R = {R} <= T = {graph.T}" if R <= graph.T else f"R = {R} > T = {graph.T}"))

    try:
        cert = connectedness_certificate(graph, raise_on_failure=False)
        ok = cert.connected
        if ok:
            detail = "connected (quotient connected, lattice index 1)"
        elif not cert.quotient_connected:
            detail = f"quotient graph has {len(cert.components)} components"
        else:
            detail = f"offset sublattice has index {cert.lattice_index or 'infinite'}"
    except ValueError as exc:
        ok, detail = False, str(exc)
    checks.append(CheckResult("connectedness", ok, detail))

    return ValidationReport(checks, R)


# ---------------------------------------------------------------------------
# finite lattices: boxes of cells, Laplacians, pinned solves


class CellBox:
    """The cells lo <= c < hi (per axis, hi exclusive) of a periodic graph.

    Vertices are cells x nodes: vertex c * n + i is node i of the c-th cell
    in row-major order (axis 0 slowest), at d-position `positions`.  Edge
    instances are cells x orbits, anchored in the box (`instances`); their
    far ends may lie outside it.  Everything is broadcast over the graph's
    PeriodicOperator arrays.
    """

    def __init__(self, graph, lo, hi):
        op = graph.operator
        self.graph = graph
        self.lo = np.asarray(lo, dtype=np.intp)
        self.shape = tuple(int(x) for x in np.asarray(hi) - self.lo)
        self._cells = np.indices(self.shape).reshape(graph.d, -1).T + self.lo
        n = graph.n_cell
        self.node_ids = np.tile(np.arange(n), len(self._cells))
        self.positions = op.dpos[self.node_ids] + graph.T * np.repeat(self._cells, n, axis=0)

    def index(self, cells, node_ids, wrap=False):
        """Vertex of each (cell, node) pair: -1 outside the box, or with
        `wrap` the vertex of the cell folded into the box modulo its extents."""
        rel = np.asarray(cells) - self.lo
        flat = np.ravel_multi_index(tuple(rel.T), self.shape, mode="wrap")
        found = flat * self.graph.n_cell + node_ids
        if wrap:
            return found
        return np.where(np.all((rel >= 0) & (rel < self.shape), axis=1), found, -1)

    def instances(self, reverse=False):
        """(near vertex, far cell, far node, weight) per cells x orbits instance.

        Forward instances run from node u of their cell to node v of the cell
        `offset` away; reversed ones from node v to node u of the cell
        `-offset` away.
        """
        op = self.graph.operator
        near, far, sign = (op.v, op.u, -1) if reverse else (op.u, op.v, 1)
        count = len(self._cells)
        anchors = (np.arange(count)[:, None] * self.graph.n_cell + near).ravel()
        far_cells = (self._cells[:, None, :] + sign * op.offset).reshape(-1, self.graph.d)
        return anchors, far_cells, np.tile(far, count), np.tile(op.w, count)

    def edges_among(self, members):
        """Instances with both ends among the vertices `members`: ends (E, 2)
        as positions in `members`, and weights."""
        where = np.full(len(self.node_ids) + 1, -1)     # the last slot maps "outside"
        where[members] = np.arange(len(members))
        near, far_cells, far_nodes, w = self.instances()
        ends = np.column_stack([where[near], where[self.index(far_cells, far_nodes)]])
        keep = np.flatnonzero(np.all(ends >= 0, axis=1))
        keep = keep[np.argsort(ends[keep, 0], kind="stable")]
        return ends[keep], w[keep]


def position_box(graph, lo, hi):
    """Vertices with lo <= d-position <= hi per axis, and the edges joining them.

    Returns (positions (N, d), node_ids (N,), ends (E, 2), weights (E,)),
    vertices ordered by position (row-major), then node.
    """
    box, inside = _position_cells(graph, lo, hi)
    pos, inside = box.positions, np.flatnonzero(inside)
    members = inside[np.lexsort(np.vstack([box.node_ids[inside], pos[inside].T[::-1]]))]
    ends, weights = box.edges_among(members)
    return pos[members], box.node_ids[members], ends, weights


def _position_cells(graph, lo, hi):
    """The CellBox covering lo <= d-position <= hi, and its in-range mask."""
    op, T = graph.operator, graph.T
    lo, hi = np.asarray(lo), np.asarray(hi)
    box = CellBox(graph, -((op.dpos.max(axis=0) - lo) // T),
                  (hi - op.dpos.min(axis=0)) // T + 1)
    return box, np.all((box.positions >= lo) & (box.positions <= hi), axis=1)


def box_adjacency(graph, lo, hi):
    """The CellBox covering lo <= d-position <= hi per axis, and a CSR
    adjacency into that range: row x lists the in-range neighbours of
    vertex x in (orbit, end) order, the order of neighbor_lists, built
    from (data, indices, indptr) since a COO build sorts rows.  scipy's
    breadth_first_order on it, the one search for paths, visits a row in
    stored order and fixes a predecessor on first discovery.
    """
    box, inside = _position_cells(graph, lo, hi)
    size = len(box.node_ids)
    ends = [box.instances(reverse) for reverse in (False, True)]
    # (cell, orbit, end) order; the last slot of `inside` maps "outside"
    near = np.column_stack([anchors for anchors, *_ in ends]).ravel()
    far = np.column_stack([box.index(cells, nodes) for _, cells, nodes, _ in ends]).ravel()
    keep = np.append(inside, False)[far]
    near, far = near[keep], far[keep]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(near, minlength=size))])
    return box, sp.csr_matrix((np.ones(len(far)), far[np.argsort(near, kind="stable")],
                               indptr), shape=(size, size))


def laplacian(n, ends, coef):
    """Sparse L (n x n) with x^T L x = sum_e coef[e] (x[a_e] - x[b_e])^2.

    Loops and zero coefficients leave no entry, so the sparsity pattern is
    the graph of the nonzero couplings.
    """
    a, b = np.asarray(ends).reshape(-1, 2).T
    c = np.asarray(coef, dtype=float)
    keep = (a != b) & (c != 0)
    a, b, c = a[keep], b[keep], c[keep]
    return sp.csr_matrix((np.concatenate([c, c, -c, -c]),
                          (np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a]))),
                         shape=(n, n))


def edge_energy(ends, coef, x):
    """sum_e coef[e] (x[a_e] - x[b_e])^2, as a running sum in edge order: the
    total of a plain loop over the edges, bit for bit."""
    diff = x[ends[:, 0]] - x[ends[:, 1]]
    return float(np.cumsum(coef * (diff * diff))[-1]) if len(diff) else 0.0


def pinned_reduction(L, pinned, values):
    """(A_ff, rhs): minimizing x^T L x with x = values on the pinned vertices
    leaves A_ff x_free = rhs.

    Raises NoConvergence when a free component has no edge to a pinned
    vertex, since A_ff is singular there.
    """
    free = ~pinned
    rows = L[free]
    A, coupling = rows[:, free], rows[:, pinned]
    count, labels = connected_components(A, directed=False)
    anchored = np.zeros(count, dtype=bool)
    anchored[labels[np.diff(coupling.indptr) > 0]] = True
    if not anchored.all():
        members = np.flatnonzero(labels == np.flatnonzero(~anchored)[0])
        raise NoConvergence(
            f"a free component of size {members.size} (vertex "
            f"{np.flatnonzero(free)[members[0]]} among its vertices) has no "
            "pinned neighbour: the reduced system is singular")
    return A, -(coupling @ values[pinned])


def pinned_solve(L, pinned, values):
    """`values` with every free entry set to the minimizer of x^T L x."""
    if pinned.all():
        return values.copy()
    A, rhs = pinned_reduction(L, pinned, values)
    solution = spla.spsolve(A, rhs)
    if not np.all(np.isfinite(solution)):
        raise NoConvergence("pinned solve produced non-finite values")
    out = values.copy()
    out[~pinned] = solution
    return out


@dataclass
class FiniteGraph:
    """A finite window of cells of a periodic graph, as arrays.

    Vertex i is node `node_ids[i]` at d-position `vertices[i]`, cells in
    row-major order and nodes in cell order; `edges` (E, 2) holds the vertex
    pairs of the orbit instances kept, with `weights`.  Under the clamped
    policy an instance crossing the window boundary keeps its outside end, a
    ghost at d-position `boundary_vertices[g]`, and appears in `ghost_edges`
    (H, 2) as a (vertex, ghost) pair with `ghost_weights`.
    """

    graph: LatticeGraph
    window: tuple               # ((lo, hi), ...) per axis, hi exclusive, cell units
    wrap: str
    vertices: np.ndarray
    node_ids: np.ndarray
    edges: np.ndarray
    weights: np.ndarray
    boundary_vertices: np.ndarray
    ghost_edges: np.ndarray
    ghost_weights: np.ndarray


def instantiate_window(graph, window, wrap="open"):
    """Materialize the cells of `window` ((lo, hi) per axis, hi exclusive).

    wrap policy: "open" drops edges leaving the window, "clamped" keeps them
    with the outside endpoint as a ghost, "periodic" wraps cell indices
    modulo the window extents.
    """
    if wrap not in ("open", "clamped", "periodic"):
        raise ValueError(f"unknown wrap policy {wrap!r}")
    window = tuple((int(lo), int(hi)) for lo, hi in window)
    if len(window) != graph.d:
        raise ValueError("window arity != d")
    if any(hi <= lo for lo, hi in window):
        raise EmptyWindow(f"empty window {window}")

    box = CellBox(graph, *zip(*window))
    near, far_cells, far_nodes, w = box.instances()
    far = box.index(far_cells, far_nodes, wrap=wrap == "periodic")
    kept = far >= 0
    # clamped: ghosts at the outside ends of the instances leaving the window
    # and of those anchored outside it and ending inside
    r_near, r_cells, r_nodes, r_w = box.instances(reverse=True)
    leaving = ~kept & (wrap == "clamped")
    entering = (box.index(r_cells, r_nodes) < 0) & (wrap == "clamped")
    keys = np.concatenate([np.column_stack([far_cells, far_nodes])[leaving],
                           np.column_stack([r_cells, r_nodes])[entering]])
    keys, ghost = np.unique(keys, axis=0, return_inverse=True)
    boundary = graph.operator.dpos[keys[:, -1]] + graph.T * keys[:, :-1]
    ghost_edges = np.column_stack([np.concatenate([near[leaving], r_near[entering]]),
                                   ghost.reshape(-1)])
    return FiniteGraph(graph, window, wrap, box.positions, box.node_ids,
                       np.column_stack([near[kept], far[kept]]), w[kept], boundary,
                       ghost_edges, np.concatenate([w[leaving], r_w[entering]]))


def graph_from_edges(d, k, T, node_coords, edge_list, M=None):
    """Convenience constructor from plain tuples.

    `node_coords` is an iterable of (dpos..., kpos...) integer tuples;
    `edge_list` holds (from coords, to coords, offset, weight).
    """
    nodes = [CellNode(tuple(c[:d]), tuple(c[d:])) for c in node_coords]
    by_coords = {tuple(n.dpos + n.kpos): n for n in nodes}
    orbits = []
    for a, b, off, w in edge_list:
        orbits.append(EdgeOrbit(by_coords[tuple(a)], by_coords[tuple(b)],
                                tuple(off), float(w)))
    return LatticeGraph(d, k, T, nodes, orbits, M=M)


def normalize_period(graph, new_T=None):
    """Re-tile the cell to period lcm(T, M) so that the cross-section fits.

    The infinite graph is unchanged; only the bookkeeping period grows.
    """
    T2 = new_T if new_T is not None else math.lcm(graph.T, graph.M)
    if T2 % graph.T != 0:
        raise ValueError("new period must be a multiple of the current one")
    reps = T2 // graph.T
    nodes = []
    for node in graph.nodes:
        for shift in product(range(reps), repeat=graph.d):
            nodes.append(CellNode(
                tuple(node.dpos[m] + graph.T * shift[m] for m in range(graph.d)),
                node.kpos))
    orbits = []
    for orb in graph.orbits:
        for shift in product(range(reps), repeat=graph.d):
            u = CellNode(tuple(orb.u.dpos[m] + graph.T * shift[m] for m in range(graph.d)),
                         orb.u.kpos)
            vabs = tuple(orb.v.dpos[m] + graph.T * (shift[m] + orb.offset[m])
                         for m in range(graph.d))
            off = tuple(c // T2 for c in vabs)
            v = CellNode(tuple(c - T2 * o for c, o in zip(vabs, off)), orb.v.kpos)
            orbits.append(EdgeOrbit(u, v, off, orb.weight))
    return LatticeGraph(graph.d, graph.k, T2, nodes, orbits, M=graph.M)
