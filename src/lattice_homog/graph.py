"""Periodic graphs on cylindrical lattice subsets.

A graph lives on a node set X inside Z^d x {0..M-1}^k, is T-periodic in the
first d coordinate directions and carries positive weights on an edge set
that is invariant under the same translations.  Everything is stored per
fundamental cell, as the arrays of a LatticeGraph: the coordinates of the
nodes, d-coordinates in [0, T) (every constructor rejects others, so the cell
of a vertex is its d-position // T), and one (u, v, offset, weight) row per
translation orbit of edges.  The CellNode / EdgeOrbit objects are a view of
those arrays, built on first use for printing and the reference loops; no
solver reads them, and parsing hands plain tuples to graph_from_edges.

Finite pieces of the infinite graph (windows, boxes, the graph that every
path search runs on) are broadcast from the graph's arrays by CellBox, which
finds the far end of each edge instance by arithmetic on its flat cell
index and tests ranges one axis at a time; a window of cells
(instantiate_window) and a box of positions (position_box) are both a
FiniteGraph of positions, node ids, edge ends and weights.  A
window is open: it keeps the edges with both ends among its cells, and a
problem that needs the outside ends of its boundary bonds (the clamped
window of asymptotic) takes a window padded by the longest orbit offset.
A PinnedProblem (window, Dirichlet, Poincare) pins the band
~inside(positions, lo + band, hi - band), band an integer, and
`PinnedProblem.reduced_system` assembles the system of its free vertices in
one pass over its edges; `laplacian` is the Laplacian of all vertices, which
the periodic quotient (PeriodicOperator) needs.  `pinned_solve` has two
routes: SuperLU for d = 1 and for small systems, and, for large systems in
d >= 2, conjugate gradients from the given values, preconditioned by a
smoothed-aggregation V-cycle whose aggregates are boxes of positions
(_Multigrid) and stopped on a backward-error test.  _preconditioned_cg
is the package's one conjugate-gradient loop: the multigrid route, the
continuum grid of bvp and the cell corrector (cell.solve_corrector, for
cells above the dense ceiling or when the direct product misses its
tolerance) run it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .bloch import fft_preconditioner
from .errors import DisconnectedGraph, EmptyWindow, NoConvergence, UnknownNode

_log = logging.getLogger("lattice_homog")


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
    """Immutable periodic graph; safe to share, all operations are pure.

    It is stored as read-only arrays: `coords` (n, d + k) int64 node
    coordinates sorted lexicographically (`dpos` and `kpos` its columns),
    and per orbit the node indices `u` and `v`, the cell `offset` (E, d)
    int64 and the weight `w`, sorted by (u, v, offset).  Every constructor
    ends in `_store`, the one canonicalization.  `nodes` and `orbits` are a
    CellNode / EdgeOrbit view of the arrays, built on first use.
    """

    def __init__(self, d, k, T, nodes, orbits, M=None):
        _check_sizes(d, k, T)
        nodes, orbits = list(nodes), list(orbits)
        _check_arity([n for n in nodes if (len(n.dpos), len(n.kpos)) != (d, k)], d, k)
        index = {n: i for i, n in enumerate(nodes)}
        for orb in orbits:
            if len(orb.offset) != d:
                raise ValueError(f"orbit offset {orb.offset} has wrong arity")
            if orb.u not in index or orb.v not in index:
                raise ValueError(f"orbit endpoint not among nodes: {orb.canonical()}")
        self._store(d, k, T, [n.dpos + n.kpos for n in nodes], [index[o.u] for o in orbits],
                    [index[o.v] for o in orbits], [o.offset for o in orbits],
                    [o.weight for o in orbits], M)

    def _store(self, d, k, T, coords, u, v, offset, w, M):
        """Keep the arrays read-only, nodes sorted and orbits canonical: each
        oriented with u < v, or u == v and its first nonzero offset
        component positive, and sorted by (u, v, offset).  Orbit e joins row
        u[e] of `coords` to row v[e] of the cell offset[e] away.  A node with
        a d-coordinate outside [0, T) raises ValueError.  A repeated orbit
        raises ValueError with `positions` = the input indices of its
        first declaration and of the earliest repeat."""
        coords = np.array(coords, dtype=np.int64).reshape(-1, d + k)
        order = np.lexsort(coords.T[::-1])
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        u, v = rank[np.asarray(u, dtype=np.intp)], rank[np.asarray(v, dtype=np.intp)]
        offset = np.array(offset, dtype=np.int64).reshape(-1, d)
        lead = offset[np.arange(len(offset)), np.argmax(offset != 0, axis=1)]
        flip = (v < u) | ((v == u) & (lead < 0))
        u, v = np.where(flip, v, u), np.where(flip, u, v)
        offset = np.where(flip[:, None], -offset, offset)
        edges = np.lexsort(tuple(offset.T[::-1]) + (v, u))
        self.d, self.k, self.T = d, k, T
        self.coords, self.u, self.v = coords[order], u[edges], v[edges]
        self.offset, self.w = offset[edges], np.array(w, dtype=float).reshape(-1)[edges]
        for a in (self.coords, self.u, self.v, self.offset, self.w):
            a.flags.writeable = False
        self.dpos, self.kpos = self.coords[:, :d], self.coords[:, d:]
        if M is None:
            M = self.kpos.max() + 1 if k and len(coords) else 1
        self.M = max(int(M), 1)
        outside = np.flatnonzero(np.any((self.dpos < 0) | (self.dpos >= T), axis=1))
        if len(outside):
            raise ValueError(f"node {self.nodes[outside[0]]} has a d-coordinate "
                             f"outside [0, {T})")
        if np.any(np.all(self.coords[1:] == self.coords[:-1], axis=1)):
            raise ValueError("duplicate nodes")
        key = np.column_stack([self.u, self.v, self.offset])
        repeats = np.flatnonzero(np.all(key[1:] == key[:-1], axis=1)) + 1
        if len(repeats):
            r = repeats[np.argmin(edges[repeats])]     # stable sort: r - 1 is its first
            a, b, *off = key[r].tolist()
            err = ValueError(f"duplicate orbit {(self.nodes[a], self.nodes[b], tuple(off))}")
            err.positions = (int(edges[r - 1]), int(edges[r]))
            raise err
        return self

    @property
    def n_cell(self):
        return len(self.coords)

    @cached_property
    def nodes(self):
        """The CellNodes of the rows of `coords`."""
        d = self.d
        return tuple(CellNode(tuple(c[:d]), tuple(c[d:])) for c in self.coords.tolist())

    @cached_property
    def orbits(self):
        """The EdgeOrbits of the orbit arrays."""
        nodes = self.nodes
        return tuple(EdgeOrbit(nodes[a], nodes[b], tuple(off), w) for a, b, off, w in
                     zip(self.u.tolist(), self.v.tolist(), self.offset.tolist(),
                         self.w.tolist()))

    @cached_property
    def _index(self):
        return {node: i for i, node in enumerate(self.nodes)}

    @cached_property
    def operator(self):
        """The graph's PeriodicOperator, built on first use and then shared."""
        return PeriodicOperator(self)

    @cached_property
    def path_constants(self):
        """The graph's coarse.PathConstants, computed on first use and then shared."""
        from . import coarse        # coarse imports this module
        return coarse.compute_path_constants(self)

    def node_index(self, node):
        try:
            return self._index[node]
        except KeyError:
            raise UnknownNode(f"node {node} is not in the fundamental cell") from None

    def __eq__(self, other):
        return (isinstance(other, LatticeGraph)
                and (self.d, self.k, self.T, self.M) == (other.d, other.k, other.T, other.M)
                and all(np.array_equal(getattr(self, a), getattr(other, a))
                        for a in ("coords", "u", "v", "offset", "w")))

    def __repr__(self):
        return (f"LatticeGraph(d={self.d}, k={self.k}, T={self.T}, M={self.M}, "
                f"{self.n_cell} nodes, {len(self.w)} orbits)")

    def _displacements(self):
        """(E, d + k) int64: the d- and k-displacement of each orbit's edge."""
        return np.column_stack([self.dpos[self.v] + self.T * self.offset - self.dpos[self.u],
                                self.kpos[self.v] - self.kpos[self.u]])

    def max_displacement(self):
        """R: largest max-norm of an edge displacement (0 for edgeless graphs)."""
        return int(np.abs(self._displacements()).max(initial=0))


def _check_sizes(d, k, T):
    for name, value, least in (("d", d, 1), ("k", k, 0), ("T", T, 1)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}")


def _check_arity(bad, d, k):
    if bad:
        raise ValueError(f"node {min(bad)} has wrong arity for d={d}, k={k}")


class PeriodicOperator:
    """Single-count cell quadratic data of a graph, shared and read-only.

    It reads the graph's arrays and keeps only what it derives from them:
    orbit e of the graph joins node u[e] to node v[e] of the cell offset[e]
    away, with weight w[e] and d-displacement disp[e].  With D the incidence matrix
    (row e: -1 at u[e], +1 at v[e]) and W = diag(w), the energy of
    z . x + chi is chi^T L chi + 2 (B z) . chi + z^T C z, where
    L = D^T W D (n x n), B = D^T W disp (n x d) and C = disp^T W disp (d x d).
    A loop orbit (u[e] == v[e]) has a zero incidence row: it adds its
    w disp disp^T to C and nothing to L or B, so a cell whose orbits are all
    loops or of zero d-displacement (two layers joined by rungs, say) has
    B = 0 exactly.

    `preconditioner` is built on first use: the FFT preconditioner of the
    cell's smallest sub-period t | T (bloch.py), an approximate inverse of
    L for the corrector CG, or None when the cell re-tiles no smaller one.
    `exact_inverse` is built on first use too: the dense inverse of
    L + sum_c 1_c 1_c^T / |c| over the quotient's connected components c,
    which is SPD for any component structure and acts as the pseudo-inverse
    of L on the mean-zero fields of every component.  `axis_correctors`,
    built from it on first use, is the n x d matrix X = -K^-1 (B - mean B)
    with each column's mean removed: column m is the corrector of the axis
    direction e_m, so the corrector of a direction z is the product X z
    (cell.corrector, for cells of at most cell.DENSE_MAX_NODES nodes).
    """

    def __init__(self, graph):
        n, d = graph.n_cell, graph.d
        self.graph = graph
        self.disp = graph._displacements()[:, :d].astype(float)
        wdisp = graph.w[:, None] * self.disp
        self.L = laplacian(n, np.column_stack([graph.u, graph.v]), graph.w)
        self.B = np.zeros((n, d))
        link = graph.u != graph.v       # a loop orbit's incidence row is zero
        np.add.at(self.B, graph.v[link], wdisp[link])
        np.add.at(self.B, graph.u[link], -wdisp[link])
        self.C = self.disp.T @ wdisp
        for a in (self.disp, self.B, self.C, self.L.data):
            a.flags.writeable = False

    @cached_property
    def preconditioner(self):
        return fft_preconditioner(self)

    @cached_property
    def exact_inverse(self):
        _, labels = connected_components(self.L, directed=False)
        K = self.L.toarray()
        K += (labels[:, None] == labels[None, :]) / np.bincount(labels)[labels]
        inverse = np.linalg.inv(K)
        inverse.flags.writeable = False
        return inverse

    @cached_property
    def axis_correctors(self):
        n = self.B.shape[0]
        X = self.exact_inverse @ (self.B.sum(axis=0) / n - self.B)
        X -= X.sum(axis=0) / n
        X.flags.writeable = False
        return X


# ---------------------------------------------------------------------------
# connectivity


@dataclass
class ConnectivityResult:
    """Exact connectivity verdict with its proof; paths come from `witness_path`."""

    connected: bool
    quotient_connected: bool
    lattice_index: int          # |det| of the translation subgroup basis, 0 if rank-deficient
    component_ids: list         # node-index partitions of the quotient graph
    sublattice_basis: list      # reduced integer basis rows of the offset subgroup
    graph: LatticeGraph = field(repr=False, compare=False)

    @property
    def components(self):
        """The partitions of `component_ids` as CellNode lists."""
        nodes = self.graph.nodes
        return [[nodes[i] for i in comp] for comp in self.component_ids]

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


def _rows_in_order(near, far, size):
    """CSR adjacency whose row x lists far[j] over the j with near[j] == x,
    in the order of j (a COO build would sort rows), and that stable order
    of `near`.  scipy's breadth_first_order visits a row in stored order."""
    order = np.argsort(near, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(near, minlength=size))])
    return sp.csr_matrix((np.ones(len(far)), far[order], indptr), shape=(size, size)), order


def _tree_potentials(graph, adjacency, order):
    """Per node, the summed cell offset of its breadth-first tree path from
    node 0, each node entered by the first entry of its parent's row."""
    n, d = graph.n_cell, graph.d
    steps = np.stack([graph.offset, -graph.offset], axis=1).reshape(-1, d)[order]
    tree, pred = breadth_first_order(adjacency, 0, directed=True, return_predecessors=True)
    rows = np.repeat(np.arange(n), np.diff(adjacency.indptr))
    entries = np.flatnonzero(rows == pred[adjacency.indices])
    child, first = np.unique(adjacency.indices[entries], return_index=True)
    pot = np.zeros((n, d), dtype=np.int64)
    pot[child] = steps[entries[first]]
    up = np.maximum(pred, 0)    # pointer doubling: pot[x] sums the steps from x to up[x]
    while np.any(up):
        pot, up = pot + pot[up], up[up]
    return pot


def connectedness_certificate(graph, raise_on_failure=True):
    """Certify connectedness of the infinite periodic graph.

    The graph is connected iff (a) the quotient multigraph on cell nodes is
    connected and (b) closed-walk offset sums generate all of Z^d.  (b) is
    decided exactly from the reduced integer basis of the cycle-offset
    subgroup, the fundamental cycles of a breadth-first spanning tree.
    Neither step searches the infinite graph: a path between two of its
    vertices comes from `witness_path` on demand.
    """
    if graph.n_cell == 0:
        raise ValueError("graph has no nodes")
    n = graph.n_cell
    # both ends of every orbit, in (orbit, end) order
    adjacency, order = _rows_in_order(np.column_stack([graph.u, graph.v]).ravel(),
                                      np.column_stack([graph.v, graph.u]).ravel(), n)
    # scipy numbers the components in the order of their smallest nodes
    count, labels = connected_components(adjacency, directed=False)
    comps = [c.tolist() for c in np.split(np.argsort(labels, kind="stable"),
                                          np.cumsum(np.bincount(labels))[:-1])]
    quotient_ok = count == 1

    lattice_index = 0
    basis = []
    if quotient_ok:
        pot = _tree_potentials(graph, adjacency, order)
        cycles = pot[graph.u] + graph.offset - pot[graph.v]
        basis = _hnf_rows(cycles[cycles.any(axis=1)].tolist(), graph.d)
        if len(basis) == graph.d:
            det = 1
            for row in basis:
                det *= row[next(i for i, x in enumerate(row) if x != 0)]
            lattice_index = abs(det)

    connected = quotient_ok and lattice_index == 1
    result = ConnectivityResult(connected, quotient_ok, lattice_index, comps, basis, graph)
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
            return [(graph.nodes[box.node_ids[x]], tuple((box.positions[x] // T).tolist()))
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

    bad = np.flatnonzero(np.any((graph.dpos < 0) | (graph.dpos >= graph.T), axis=1)
                         | np.any((graph.kpos < 0) | (graph.kpos >= graph.M), axis=1))
    checks.append(CheckResult(
        "node-ranges", not len(bad), "all node coordinates in range" if not len(bad)
        else f"out of range: {[graph.nodes[i] for i in bad[:3]]}"))

    bad_w = np.flatnonzero(~((graph.w > 0) & np.isfinite(graph.w)))
    checks.append(CheckResult(
        "weight-positivity", not len(bad_w), "all weights positive" if not len(bad_w)
        else f"non-positive weight on {graph.orbits[bad_w[0]]}"))

    loops = np.flatnonzero(~graph._displacements().any(axis=1))
    checks.append(CheckResult(
        "no-self-loop", not len(loops), "no zero-displacement orbit" if not len(loops)
        else f"self loop: {graph.orbits[loops[0]]}"))

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
            detail = f"quotient graph has {len(cert.component_ids)} components"
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

    Vertices are cells x nodes: vertex f * n + i is node i of the cell with
    row-major flat index f (axis 0 slowest), at d-position `positions`.
    Edge instances are cells x orbits, anchored in the box (`instances`).
    Everything is broadcast over the graph's node and orbit arrays and the
    box's cell grid: the far end of an instance is found by arithmetic on
    flat cell indices, and whether it lies in the box by one mask per axis,
    never by a lookup of its cell.  `index` looks up given (cell, node)
    pairs.
    """

    def __init__(self, graph, lo, hi):
        self.graph = graph
        self.lo = np.asarray(lo, dtype=np.intp)
        self.shape = tuple(int(x) for x in np.asarray(hi) - self.lo)
        self.strides = np.cumprod((1,) + self.shape[:0:-1])[::-1]     # row-major, in cells
        cells = np.indices(self.shape).reshape(graph.d, -1).T + self.lo
        n = graph.n_cell
        self.node_ids = np.tile(np.arange(n), len(cells))
        self.positions = (graph.T * cells[:, None, :] + graph.dpos).reshape(-1, graph.d)

    def index(self, cells, node_ids):
        """Vertex of each (cell, node) pair, -1 outside the box."""
        rel = np.asarray(cells) - self.lo
        flat = np.zeros(len(rel), dtype=np.intp)
        within = np.ones(len(rel), dtype=bool)
        for axis, size in enumerate(self.shape):
            column = rel[:, axis]
            within &= column.astype(np.uintp) < size     # a negative wraps past any size
            flat *= size
            flat += column
        return np.where(within, flat * self.graph.n_cell + node_ids, -1)

    def instances(self, reverse=False):
        """(near vertex, far vertex, weight) per cells x orbits instance, in
        (cell, orbit) order; far is -1 where the far end lies outside the box.

        Forward instances run from node u of their cell to node v of the cell
        `offset` away; reversed ones from node v to node u of the cell
        `-offset` away.  The instance of orbit e anchored in flat cell f
        (coordinates c from lo) ends at vertex (f + offset_e . strides) n + v_e,
        which lies in the box when 0 <= c_m + offset_em < shape[m] on every
        axis m: one mask of shape (cells on axis m, orbits) per axis.
        """
        g = self.graph
        near, far, offset = (g.v, g.u, -g.offset) if reverse else (g.u, g.v, g.offset)
        n = g.n_cell
        anchors = np.arange(math.prod(self.shape))[:, None] * n
        reach = [np.arange(size)[:, None] + offset[:, m] for m, size in enumerate(self.shape)]
        within = _all_axes([(c >= 0) & (c < size) for c, size in zip(reach, self.shape)])
        ends = np.where(within, anchors + (offset @ self.strides * n + far), -1)
        return (anchors + near).ravel(), ends.ravel(), np.tile(g.w, len(anchors))

    def edges_among(self, members):
        """Instances with both ends among the vertices `members`: ends (E, 2)
        as positions in `members`, and weights."""
        where = np.full(len(self.node_ids) + 1, -1)     # the last slot maps "outside"
        where[members] = np.arange(len(members))
        near, far, w = self.instances()
        a, b = where[near], where[far]
        keep = np.flatnonzero((a >= 0) & (b >= 0))
        keep = keep[np.argsort(a[keep], kind="stable")]
        return np.column_stack([a[keep], b[keep]]), w[keep]


def _all_axes(masks):
    """The AND over the axes m of masks[m], of shape (cells on axis m, *tail)
    each, broadcast over a box of cells: shape (cells, *tail), the cells in
    row-major order."""
    d, total = len(masks), True
    for m, mask in enumerate(masks):
        total = total & mask.reshape((1,) * m + mask.shape[:1] + (1,) * (d - 1 - m)
                                     + mask.shape[1:])
    return total.reshape((-1,) + masks[0].shape[1:])


def _within(graph, cell_lo, shape, lo, hi):
    """Mask of the vertices of CellBox(graph, cell_lo, cell_lo + shape) with
    lo <= d-position <= hi on every axis (lo, hi scalars), without their
    positions: per axis one test of shape (cells on that axis, nodes)."""
    masks = []
    for m, size in enumerate(shape):
        p = graph.T * np.arange(cell_lo[m], cell_lo[m] + size)[:, None] + graph.dpos[:, m]
        masks.append((p >= lo) & (p <= hi))
    return _all_axes(masks).ravel()


class FiniteGraph(NamedTuple):
    """A finite piece of a periodic graph, as arrays: vertex i is node
    `node_ids[i]` at d-position `positions[i]` (N, d), and `ends` (E, 2)
    holds the vertex pairs of the edges with both ends in the piece, with
    `weights` (E,)."""

    positions: np.ndarray
    node_ids: np.ndarray
    ends: np.ndarray
    weights: np.ndarray


def position_box(graph, lo, hi):
    """The FiniteGraph of the vertices with lo <= d-position <= hi per axis,
    ordered by position (row-major), then node."""
    box, inside = _position_cells(graph, lo, hi)
    pos, inside = box.positions, np.flatnonzero(inside)
    # the row-major rank of the position in [lo, hi], then the node
    offsets = pos.take(inside, axis=0) - lo
    rank = np.ravel_multi_index(tuple(offsets.T), tuple(np.asarray(hi) - lo + 1))
    members = inside[np.argsort(rank * graph.n_cell + box.node_ids[inside], kind="stable")]
    return FiniteGraph(pos.take(members, axis=0), box.node_ids[members],
                       *box.edges_among(members))


def _position_cells(graph, lo, hi):
    """The CellBox covering lo <= d-position <= hi, and its in-range mask."""
    T = graph.T
    lo, hi = np.asarray(lo), np.asarray(hi)
    box = CellBox(graph, -((graph.dpos.max(axis=0) - lo) // T),
                  (hi - graph.dpos.min(axis=0)) // T + 1)
    return box, inside(box.positions, lo, hi)


def inside(pos, lo, hi):
    """Mask of the rows of `pos` with lo <= pos <= hi on every axis, lo and hi
    scalars or one bound per axis; one column at a time, which is faster
    than a reduction over the rows' short axis."""
    lo, hi = np.asarray(lo), np.asarray(hi)
    mask = np.ones(len(pos), dtype=bool)
    for m, column in enumerate(pos.T):
        mask &= column >= (lo[m] if lo.ndim else lo)
        mask &= column <= (hi[m] if hi.ndim else hi)
    return mask


def box_adjacency(graph, lo, hi):
    """The CellBox covering lo <= d-position <= hi per axis, and a CSR
    adjacency into that range (`_rows_in_order`): row x lists the in-range
    neighbours of vertex x in (orbit, end) order, the order the quotient
    search of connectedness_certificate uses too.  scipy's
    breadth_first_order on it is the one search for paths.
    """
    box, inside = _position_cells(graph, lo, hi)
    size = len(box.node_ids)
    ends = [box.instances(reverse) for reverse in (False, True)]
    # (cell, orbit, end) order; the last slot of `inside` maps "outside"
    near = np.column_stack([near for near, _, _ in ends]).ravel()
    far = np.column_stack([far for _, far, _ in ends]).ravel()
    keep = np.append(inside, False)[far]
    return box, _rows_in_order(near[keep], far[keep], size)[0]


def laplacian(n, ends, coef):
    """Sparse L (n x n) with x^T L x = sum_e coef[e] (x[a_e] - x[b_e])^2.

    Loops and zero coefficients leave no entry, so the sparsity pattern is
    the graph of the nonzero couplings.
    """
    a, b, c = _couplings(ends, coef)
    return sp.csr_matrix((np.concatenate([c, c, -c, -c]),
                          (np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a]))),
                         shape=(n, n))


def _couplings(ends, coef):
    """(a, b, coef) of the edges other than loops with a nonzero coefficient;
    views of the inputs when every edge is kept."""
    a, b = np.asarray(ends).reshape(-1, 2).T
    c = np.asarray(coef, dtype=float)
    keep = (a != b) & (c != 0)
    if keep.all():
        return a, b, c
    return a[keep], b[keep], c[keep]


def edge_energy(ends, coef, x):
    """sum_e coef[e] (x[a_e] - x[b_e])^2, as a running sum in edge order: the
    total of a plain loop over the edges, bit for bit."""
    diff = x[ends[:, 0]] - x[ends[:, 1]]
    return float(np.cumsum(coef * (diff * diff))[-1]) if len(diff) else 0.0


def pinned_solve(A, rhs, start=None, positions=None):
    """x with A x = rhs, for A = A_ff and rhs of a pinned problem
    (PinnedProblem.reduced_system, or grounded_solve's columns), symmetric
    positive definite.

    The one pinned solve of the package (window, Dirichlet and the local
    inequality harnesses).  Given the free vertices' d-positions `positions`
    with d >= 2 and at least _MG_MIN_DOFS rows, it runs conjugate gradients
    from `start` (zeros when None), preconditioned with a smoothed-
    aggregation V-cycle (_Multigrid), to a backward error of _MG_TOL; a cap
    of _MG_MAX_STEPS steps raises NoConvergence with the backward error
    reached.  Everything else (every d = 1 problem, where the fill is
    linear, every small one and every one without positions) goes to
    SuperLU, one factorization for any number of right-hand-side columns,
    with the columns of A ordered by minimum degree on the pattern of
    A + A^T (George & Liu, 1981) instead of its default COLAMD, which does
    not use the symmetry: less fill, less time and memory on every call.
    Either route logs its size and backward error to the `lattice_homog`
    logger at debug level; SuperLU computes its backward error only when
    that level is enabled.

    SuperLU's fill grows faster than the system; the multigrid steps do
    not grow with it.  One solve of the R4 window at z = (1, 1) (R4 of the
    tests: R(4), one vertex per position), of the L2 Dirichlet problem (two
    per position) and of the KD(4, 100) window (log-uniform weights of
    contrast 100), in ms (the better of two best-of-7 runs on a 2-vCPU x86
    host with one BLAS thread): the assembly (reduced_system), then SuperLU,
    or the multigrid set-up and CG with their levels and steps.  The
    assembly column was timed apart from the others, by the same method:

        problem          free dofs   assembly   SuperLU   set-up   CG     levels, steps
        R4 window K=24   5 329       0.8        10.8      2.5      5.1    3, 17
        R4 window K=32   11 025      1.5        26.4      4.8      9.8    3, 16
        R4 window K=48   28 561      6.6        95.7      14.2     25.4   4, 16
        R4 window K=64   54 289      14.6       215.2     20.0     52.1   5, 16
        L2 eps=1/64      7 938       1.4        29.2      3.3      11.3   3, 25
        KD(4,100) K=26   6 561       1.0        11.4      2.8      22.6   3, 74

    CG starts from the given values of the free vertices: the affine field
    on a window, which leaves only the corrector to find (20 steps from
    zero on R4, 86 on KD(4, 100)), and zeros in the Dirichlet problem.  The
    solutions agree with SuperLU to 5.5e-13 in max-norm relative (2.3e-11
    at contrast 100).  At contrast 2 the break-even lies near the first
    row, hence _MG_MIN_DOFS = 6000; contrast costs steps, while SuperLU's
    fill does not depend on it.
    """
    multigrid = positions is not None and positions.shape[1] >= 2 and len(rhs) >= _MG_MIN_DOFS
    if multigrid:
        x = _multigrid_solve(A, rhs, start, positions)
    else:
        x = spla.spsolve(A, rhs, permc_spec="MMD_AT_PLUS_A")
    if not np.all(np.isfinite(x)):
        raise NoConvergence("pinned solve produced non-finite values")
    if not multigrid and _log.isEnabledFor(logging.DEBUG):
        _log.debug("superlu: free dofs %d, nnz %d, backward error %.3e", len(rhs), A.nnz,
                   _backward_error(A.dot, x, rhs, spla.norm(A, np.inf)))
    return x


_MG_MIN_DOFS = 6000     # free dofs from which a d >= 2 pinned solve runs multigrid CG
_MG_BOX = 4             # the finest aggregates are boxes of _MG_BOX^d positions
_MG_COARSEST = 200      # dofs of a level solved by dense Cholesky
_MG_TOL = 1e-14         # backward error at which multigrid CG stops
_MG_MAX_STEPS = 500


class _Multigrid:
    """Smoothed-aggregation V-cycle for A = A_ff of a pinned problem whose
    free vertices sit at the d-positions `positions` (Vanek, Mandel &
    Brezina, Computing 56, 1996), as a map r -> M r.

    The finest aggregates are the boxes positions // _MG_BOX, and each
    coarser level joins 2^d of them: a finer form of the coarse-graining
    into cell means (coarse.coarse_mean).  A level's prolongator is the
    indicator of its aggregates smoothed once by damped Jacobi,
    P = (I - w D^-1 A) P0, and the next level's matrix is P^T A P.  The
    weight is w = 4 / (3 g), with g = max_i sum_j |a_ij| / a_ii >= rho(D^-1 A)
    by Gershgorin; A_ff is a principal submatrix of a Laplacian with
    positive coefficients, so g = 2 and w = 2/3 on the finest level.  The
    first level of at most _MG_COARSEST dofs is solved by dense Cholesky.
    The cycle smooths by two damped-Jacobi sweeps before its coarse
    correction and two after: w g < 2 makes each sweep a contraction in the
    A-norm, and equal sweeps make M symmetric positive definite, as CG needs.
    """

    def __init__(self, A, positions):
        self.levels = []            # (A, w D^-1, P, P^T) per level above the coarsest
        blocks = ((positions - positions.min(axis=0)) // _MG_BOX).astype(np.intp)
        while A.shape[0] > _MG_COARSEST:
            key = np.ravel_multi_index(tuple(blocks.T), tuple(blocks.max(axis=0) + 1))
            _, first, labels = np.unique(key, return_index=True, return_inverse=True)
            n = A.shape[0]
            if len(first) == n:     # no box holds two vertices yet
                blocks //= 2
                continue
            diag = A.diagonal()
            weight = 4.0 / (3.0 * (abs(A).sum(axis=1).A1 / diag).max()) / diag
            P = _smoothed_prolongator(A, labels, len(first), weight)
            R = P.T.tocsr()
            self.levels.append((A, weight, P, R))
            A = R @ A @ P
            blocks = blocks[first] // 2
        self.coarsest = sla.cho_factor(A.toarray(), check_finite=False)

    def __call__(self, b):
        descent = []
        for A, weight, _, R in self.levels:
            x = weight * b                      # two sweeps from x = 0
            x += weight * (b - A @ x)
            descent.append((b, x))
            b = R @ (b - A @ x)
        x = sla.cho_solve(self.coarsest, b, check_finite=False)
        for (A, weight, P, _), (b, fine) in zip(self.levels[::-1], descent[::-1]):
            fine += P @ x
            for _ in range(2):
                fine += weight * (b - A @ fine)
            x = fine
        return x


def _smoothed_prolongator(A, labels, count, weight):
    """P = P0 - diag(weight) A P0 for the indicator P0 of the aggregates
    (row i a one in column labels[i]).

    The rows of the product A P0 are scaled in place, which gives each entry
    the one rounding diags(weight) @ (A @ P0) gives it, without a third
    sparse product; P is the same matrix bit for bit.
    """
    n = A.shape[0]
    P0 = sp.csr_matrix((np.ones(n), labels, np.arange(n + 1)), shape=(n, count))
    S = A @ P0
    S.data *= np.repeat(weight, np.diff(S.indptr))
    return P0 - S


def _multigrid_solve(A, rhs, start, positions):
    """x with A x = rhs by _Multigrid-preconditioned CG from `start`
    (pinned_solve).

    ||A||_2 <= 2 max_i a_ii by Gershgorin, A being a principal submatrix of a
    Laplacian with positive coefficients.
    """
    cycle = _Multigrid(A, positions)
    x, steps, backward = _preconditioned_cg(A.dot, rhs, cycle, 2.0 * A.diagonal().max(),
                                            _MG_TOL, _MG_MAX_STEPS, "multigrid CG", start)
    _log.debug("multigrid: free dofs %d, levels %d, iterations %d, backward error %.3e",
               len(rhs), len(cycle.levels) + 1, steps, backward)
    return x


def _backward_error(apply, x, b, norm):
    """||b - A x|| / (norm ||x|| + ||b||), A = `apply` and `norm` >= ||A||_2;
    0 when x and b are both zero."""
    scale = _error_scale(x, np.linalg.norm(b), norm)
    return float(np.linalg.norm(b - apply(x)) / scale) if scale else 0.0


def _error_scale(x, norm_b, norm):
    """norm ||x|| + ||b||, the denominator of the backward error; ||x|| is not
    taken when the norm bound is 0 (the relative-residual stop)."""
    return norm * np.linalg.norm(x) + norm_b if norm else norm_b


def _preconditioned_cg(apply, b, precondition, norm, tol, cap, name, start=None):
    """(x, steps, backward error) of conjugate gradients on A x = b from
    x = `start` (zeros when None), with A = `apply` and the approximate
    inverse `precondition` both symmetric positive definite, x and b arrays
    of any one shape (Hestenes & Stiefel, J. Res. NBS 49, 1952).  The one CG
    loop of the package: the multigrid pinned solve, the continuum grid
    (bvp._fd_solve) and the cell corrector (cell.solve_corrector) run it.

    `norm` bounds ||A||_2 from above (||A||_inf does for a symmetric A).  CG
    stops at the first step whose recursive residual r meets the
    backward-error test ||r|| <= tol (norm ||x|| + ||b||): x then solves a
    system within relative distance tol of A x = b (Rigal & Gaches, J. ACM
    14, 1967).  Unlike a test on ||r|| / ||b|| it stays above the rounding
    floor of ||b - A x||, which grows with ||A|| ||x||.  With norm = 0 the
    test is the relative-residual stop ||r|| <= tol ||b||, the corrector's.
    The backward error returned is that of b - A x, recomputed.  A start
    that already passes the test is returned after 0 steps, with the
    backward error of the start residual just computed (one product with
    A).  With norm = 0, ||x|| is never taken.  b = 0 returns
    exact zeros: from a nonzero start the test would ask
    ||A x|| <= tol norm ||x||, which no x != 0 meets once A is better
    conditioned than 1 / tol.

    The loop breaks down when p.Ap <= 0 (A not positive definite) or
    r.Mr <= 0 (the preconditioner not, or a residual it maps to zero).  At a
    breakdown or after `cap` steps it returns x if the recomputed backward
    error meets tol, and otherwise raises NoConvergence carrying that
    backward error as `residual`.
    """
    norm_b = np.linalg.norm(b)
    if norm_b == 0:
        return np.zeros_like(b), 0, 0.0
    if start is None:
        x, r = np.zeros_like(b), b.copy()
    else:
        x = np.array(start, dtype=b.dtype)
        r = b - apply(x)
    norm_r, scale = np.linalg.norm(r), _error_scale(x, norm_b, norm)
    if norm_r <= tol * scale:
        return x, 0, float(norm_r / scale)
    z = precondition(r)
    p, rz = z, np.vdot(r, z)
    for step in range(cap):
        Ap = apply(p)
        pAp = np.vdot(p, Ap)
        if pAp <= 0 or rz <= 0:
            label, value = ("p.Ap", pAp) if pAp <= 0 else ("r.Mr", rz)
            stop = f"broke down at iteration {step} ({label} = {value:.3e} <= 0)"
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) <= tol * _error_scale(x, norm_b, norm):
            return x, step + 1, _backward_error(apply, x, b, norm)
        z = precondition(r)
        rz, rz_old = np.vdot(r, z), rz
        p = z + (rz / rz_old) * p
    else:
        step, stop = cap, f"hit the {cap}-iteration cap"
    backward = _backward_error(apply, x, b, norm)
    if backward <= tol:
        return x, step, backward
    raise NoConvergence(f"{name} {stop} (backward error {backward:.3e})", residual=backward)


@dataclass
class PinnedProblem:
    """sum_e coef[e] (x[a_e] - x[b_e])^2 over x = values on the pinned vertices;
    vertex i is node node_ids[i] at d-position positions[i]."""

    positions: np.ndarray
    node_ids: np.ndarray
    ends: np.ndarray
    coef: np.ndarray
    pinned: np.ndarray
    values: np.ndarray

    def reduced_system(self):
        """(A_ff, rhs): minimizing the energy with x = values on the pinned
        vertices leaves A_ff x_free = rhs, in the order of the free vertices.

        One pass over the edges, without the rows of the pinned vertices: the
        diagonal is a bincount, the free-free edges and the diagonal make one
        COO to CSR conversion, which sums repeated pairs, and rhs sums
        coef * value over the free-pinned edges.  Loops and zero coefficients
        leave no entry, so A_ff is the free-free block of `laplacian`.  Each
        sum runs in the order in which `laplacian` sums it (the edges with
        the vertex as first end, then those with it as second end; in rhs,
        each pinned neighbour's summed coefficient times its value by
        increasing vertex), so the systems of the tests equal that block and
        -L_fp values_p bit for bit.  Indices are int32 when the matrix fits
        them, the index type scipy gives its CSR, so the conversion copies
        no index array.  Raises NoConvergence when a free component
        has no edge to a pinned vertex, since A_ff is singular there: one
        breadth-first search from a free vertex with a pinned neighbour
        settles the usual case of one free component, and the connected
        components are labelled only when it does not reach every vertex.
        """
        a, b, c = _couplings(self.ends, self.coef)
        n, free = len(self.pinned), ~self.pinned
        nf = int(np.count_nonzero(free))
        itype = np.int32 if nf + 2 * len(c) < 2 ** 31 else np.intp
        index = np.where(free, np.cumsum(free, dtype=itype) - 1, -1)    # -1 when pinned
        ia, ib = index[a], index[b]
        fa, fb = ia >= 0, ib >= 0
        inner, out_a, out_b = fa & fb, fa & ~fb, fb & ~fa    # out_a: a free, b pinned
        diag = np.bincount(np.concatenate([a, b]), np.concatenate([c, c]), n)[free]
        i, j, off = ia[inner], ib[inner], -c[inner]
        diagonal = np.arange(nf, dtype=itype)
        A = sp.csr_matrix((np.concatenate([off, off, diag]),
                           (np.concatenate([i, j, diagonal]), np.concatenate([j, i, diagonal]))),
                          shape=(nf, nf))
        # the free end, pinned end and coefficient of each free-pinned edge,
        # then one summed coefficient per (free, pinned) pair
        near = np.concatenate([ia[out_a], ib[out_b]])
        far = np.concatenate([b[out_a], a[out_b]])
        coupling = np.concatenate([c[out_a], c[out_b]])
        order = np.lexsort((far, near))
        near, far, coupling = near[order], far[order], coupling[order]
        head = np.ones(len(near), dtype=bool)
        head[1:] = (near[1:] != near[:-1]) | (far[1:] != far[:-1])
        coupling = np.bincount(np.cumsum(head) - 1, coupling)
        rhs = np.bincount(near[head], coupling * self.values[far[head]], nf)
        if len(near) and len(breadth_first_order(A, near[0], return_predecessors=False)) == nf:
            return A, rhs
        count, labels = connected_components(A, directed=False)
        anchored = np.zeros(count, dtype=bool)
        anchored[labels[near]] = True
        if not anchored.all():
            members = np.flatnonzero(labels == np.flatnonzero(~anchored)[0])
            raise NoConvergence(
                f"a free component of size {members.size} (vertex "
                f"{np.flatnonzero(free)[members[0]]} among its vertices) has no "
                "pinned neighbour: the reduced system is singular")
        return A, rhs

    def solve(self):
        if self.pinned.all():
            return self.values.copy()
        free = ~self.pinned
        A, rhs = self.reduced_system()
        out = self.values.copy()
        positions = self.positions.compress(free, axis=0)
        out[free] = pinned_solve(A, rhs, self.values[free], positions)
        return out

    def energy(self, x):
        return edge_energy(self.ends, self.coef, x)


def grounded_solve(n, ends, coef, source, rhs):
    """X (n, k) with L X = rhs for the Laplacian L = laplacian(n, ends, coef),
    X = 0 at `source` and off its component, for rhs (n, k) whose columns
    sum to zero on that component and vanish off it.

    One breadth-first search from `source` finds the component; with
    `source` and every vertex not reached pinned at 0, the free block A_ff
    of L is positive definite, and pinned_solve (SuperLU, as no positions
    are given) factors it once for all the columns.  Row `source` of L X = rhs then holds too, as both sides sum to
    zero over the component.
    """
    L = laplacian(n, ends, coef)
    free = breadth_first_order(L, source, return_predecessors=False)[1:]
    X = np.zeros(np.shape(rhs))
    if len(free):
        b = rhs[free]
        # spsolve returns one column as a vector
        X[free] = pinned_solve(L[free][:, free], b).reshape(b.shape)
    return X


def instantiate_window(graph, window):
    """The FiniteGraph of the cells of `window` ((lo, hi) per axis, hi
    exclusive): vertex c * n + i is node i of the c-th cell in row-major
    order, and the edges are the instances with both ends in the window,
    anchor first, in (cell, orbit) order: CellBox.instances with the far
    ends outside the box (far = -1) dropped."""
    window = tuple((int(lo), int(hi)) for lo, hi in window)
    if len(window) != graph.d:
        raise ValueError("window arity != d")
    if any(hi <= lo for lo, hi in window):
        raise EmptyWindow(f"empty window {window}")

    box = CellBox(graph, *zip(*window))
    near, far, w = box.instances()
    kept = far >= 0
    return FiniteGraph(box.positions, box.node_ids,
                       np.column_stack([near, far]).compress(kept, axis=0), w[kept])


def graph_from_edges(d, k, T, node_coords, edge_list, M=None):
    """Convenience constructor from plain tuples, straight to the arrays.

    `node_coords` is an iterable of (dpos..., kpos...) integer tuples;
    `edge_list` holds (from coords, to coords, offset, weight); an edge end
    not among the nodes raises KeyError.
    """
    _check_sizes(d, k, T)
    rows = [tuple(c) for c in node_coords]
    _check_arity([CellNode(c[:d], c[d:]) for c in rows if len(c) != d + k], d, k)
    index = {c: i for i, c in enumerate(rows)}
    a, b, offsets, weights = list(zip(*edge_list)) or [()] * 4
    for off in offsets:
        if len(off) != d:
            raise ValueError(f"orbit offset {tuple(off)} has wrong arity")
    ends = np.array([index[tuple(c)] for pair in zip(a, b) for c in pair], dtype=np.intp)
    return LatticeGraph.__new__(LatticeGraph)._store(d, k, T, rows, ends[0::2], ends[1::2],
                                                     offsets, weights, M)


def normalize_period(graph, new_T=None):
    """Re-tile the cell to period lcm(T, M) so that the cross-section fits.

    The infinite graph is unchanged; only the bookkeeping period grows.  The
    new cell holds node i shifted by s old cells, s in [0, T2 / T)^d, and
    orbit e shifted by s joins node (u[e], s) to node (v[e], s') of the new
    cell `cells` away, where s + offset[e] = s' + (T2 / T) * cells.
    """
    T2 = new_T if new_T is not None else math.lcm(graph.T, graph.M)
    if T2 % graph.T != 0:
        raise ValueError("new period must be a multiple of the current one")
    reps, d = T2 // graph.T, graph.d
    shifts = np.indices((reps,) * d).reshape(d, -1).T
    count = len(shifts)
    # node (i, s) is row i * count + s, s counted row-major
    coords = np.column_stack([(graph.dpos[:, None] + graph.T * shifts).reshape(-1, d),
                              np.repeat(graph.kpos, count, axis=0)])
    cells, wrapped = np.divmod(shifts + graph.offset[:, None], reps)
    u = graph.u[:, None] * count + np.arange(count)
    v = graph.v[:, None] * count + wrapped @ reps ** np.arange(d - 1, -1, -1)
    return LatticeGraph.__new__(LatticeGraph)._store(
        d, graph.k, T2, coords, u.ravel(), v.ravel(), cells.reshape(-1, d),
        np.repeat(graph.w, count), graph.M)
