import numpy as np
import pytest
from hypothesis import settings

from lattice_homog import builtin_examples, graph_from_edges, homogenized_tensor, solve_corrector
from lattice_homog.oracle import _ordered_pairs

# a failing property prints its @reproduce_failure blob; every other
# setting (examples, deadline) stays Hypothesis's default
settings.register_profile("lattice_homog", print_blob=True)
settings.load_profile("lattice_homog")


def chain_graph():
    """Z x {0}, nearest-neighbour bonds, T = 1."""
    return graph_from_edges(1, 0, 1, [(0,)], [((0,), (0,), (1,), 1.0)])


def square_lattice(wx=1.5, wy=0.5):
    """Z^2, axis bonds with anisotropic weights; A = diag(2*wx, 2*wy) doubled."""
    return graph_from_edges(2, 0, 1, [(0, 0)],
                            [((0, 0), (0, 0), (1, 0), wx),
                             ((0, 0), (0, 0), (0, 1), wy)])


def skew_lattice(wx=1.0, wy=1.0, wd=0.25):
    """Z^2 with axis bonds plus a (1,1) diagonal; off-diagonal tensor entries."""
    return graph_from_edges(2, 0, 1, [(0, 0)],
                            [((0, 0), (0, 0), (1, 0), wx),
                             ((0, 0), (0, 0), (0, 1), wy),
                             ((0, 0), (0, 0), (1, 1), wd)])


def layered_square_lattice():
    """Two layers of Z^2, a (1,1) diagonal in one, joined by a rung; T = 1.

    The only inter-node orbit has zero d-displacement, so B = 0, the
    corrector vanishes and the doubled tensor is [[20/3, 2/3], [2/3, 14/3]].
    """
    a, b = (0, 0, 0), (0, 0, 1)
    return graph_from_edges(2, 1, 1, [a, b],
                            [(a, a, (1, 0), 2.0), (a, a, (0, 1), 1.0),
                             (a, a, (1, 1), 1.0 / 3.0), (b, b, (1, 0), 1.0),
                             (b, b, (0, 1), 1.0), (a, b, (0, 0), 1.0)])


def square_cell(wx, wy):
    """The T x T square cell of Z^2 with weight wx[x, y] on the bond from
    (x, y) to (x + 1, y) and wy[x, y] on the bond from (x, y) to (x, y + 1)."""
    T = len(wx)
    edges = []
    for x in range(T):
        for y in range(T):
            edges.append(((x, y), ((x + 1) % T, y), (int(x == T - 1), 0), float(wx[x, y])))
            edges.append(((x, y), (x, (y + 1) % T), (0, int(y == T - 1)), float(wy[x, y])))
    return graph_from_edges(2, 0, T, [(x, y) for x in range(T) for y in range(T)], edges)


def random_square_lattice(T, rng, contrast=None):
    """T x T square cell with U(0.5, 2) bond weights: a multi-node d=2 cell.

    With a `contrast` c the weights are i.i.d. log-uniform on [1/c, c]
    instead (KD(T, c))."""
    if contrast is None:
        draw = lambda: float(rng.uniform(0.5, 2.0))
    else:
        draw = lambda: float(np.exp(rng.uniform(-np.log(contrast), np.log(contrast))))
    edges = []
    for x in range(T):
        for y in range(T):
            edges.append(((x, y), ((x + 1) % T, y), (int(x == T - 1), 0), draw()))
            edges.append(((x, y), (x, (y + 1) % T), (0, int(y == T - 1)), draw()))
    return graph_from_edges(2, 0, T, [(x, y) for x in range(T) for y in range(T)], edges)


def cube_lattice(rng):
    """d = 3, T = 2: the 2 x 2 x 2 cube of sites with a bond from each site to
    its neighbour along every axis, U(0.5, 2) weights."""
    sites = list(np.ndindex(2, 2, 2))
    edges = []
    for site in sites:
        for m in range(3):
            far = list(site)
            far[m] = 1 - site[m]
            # the bond from coordinate 1 ends in the next cell along axis m
            offset = tuple(int(a == m and site[m] == 1) for a in range(3))
            edges.append((site, tuple(far), offset, float(rng.uniform(0.5, 2.0))))
    return graph_from_edges(3, 0, 2, sites, edges)


def long_offset_chain():
    """Z with bonds of length 9 and 10, T = 1: a window of K cells has its far
    ends up to r = 10 cells outside it."""
    return graph_from_edges(1, 0, 1, [(0,)], [((0,), (0,), (9,), 1.0),
                                               ((0,), (0,), (10,), 1.0)])


def random_strip(P, rng):
    """d=1, k=1 two-rail strip of period P, U(0.5, 2) rails, rungs at 0 and
    at each other x with probability 1/2: a cell with no sub-period unless
    the rungs repeat."""
    edges = [((x, r), ((x + 1) % P, r), (int(x == P - 1),), float(rng.uniform(0.5, 2.0)))
             for r in range(2) for x in range(P)]
    edges += [((x, 0), (x, 1), (0,), 1.0)
              for x in range(P) if x == 0 or rng.random() < 0.5]
    return graph_from_edges(1, 1, P, [(x, r) for x in range(P) for r in range(2)], edges)


def oracle_neighbours(graph, node):
    """(neighbour, cell offset, weight) of `node` among the dense oracle's
    ordered pairs, in pair order; UnknownNode for a node not in the cell."""
    i, j, offset, w = _ordered_pairs(graph)
    return [(graph.nodes[j[e]], tuple(offset[e].tolist()), float(w[e]))
            for e in np.flatnonzero(i == graph.node_index(node))]


def plain_cg_tensor(graph):
    """The doubled tensor from axis correctors by plain (unpreconditioned) CG."""
    op = graph.operator
    X = np.column_stack([solve_corrector(op.L, op.B @ e).values for e in np.eye(graph.d)])
    BX = op.B.T @ X
    A = op.C + BX + BX.T + X.T @ (op.L @ X)
    return (A + A.T) / graph.T ** graph.d


EPS = np.finfo(float).eps


def on_fft_route(g):
    """`g` with its operator's corrector route set to FFT-PCG, which the cost
    rule would choose only for large low-contrast cells; it must re-tile a
    smaller cell."""
    g.operator.__dict__["route"] = "fft"
    assert g.operator.preconditioner is not None
    return g


def pseudo_inverse(L):
    """The dense pseudo-inverse of a quotient Laplacian L: L^+ b is the
    corrector of the right-hand side b (orthogonal to L's kernel), mean-zero
    on every component."""
    return np.linalg.pinv(L.toarray())


def reference_tensor(g):
    """(doubled tensor, X) from axis correctors solved by CG to tol 1e-14,
    preconditioned by the cell's FFT preconditioner where it has one,
    assembled as homogenized_tensor assembles them."""
    op = g.operator
    X = np.column_stack([solve_corrector(op.L, op.B @ e, tol=1e-14,
                                         precondition=op.preconditioner).values
                         for e in np.eye(g.d)])
    BX = op.B.T @ X
    A = op.C + BX + BX.T + X.T @ (op.L @ X)
    return 2.0 / g.T ** g.d * 0.5 * (A + A.T), X


def check_certificate(g):
    """(tensor, whether the energy stop ended every axis solve): checks the
    error_bound of the tensor of `g` on the FFT route (on_fft_route) against
    a tol 1e-14 reference.

    The certificate bounds the iteration error factor * E^T L E, E the
    corrector error, which is measured here from E itself, free of the
    cancellation in the tensor's sums.  Those sums (C + 2 B^T X + X^T L X,
    length-n dot products) round by up to a few sqrt(n) eps of factor C_mm
    in either tensor, which the certificate does not cover, so the entries
    are held to the bound plus 2 sqrt(n) of those roundings.  When the
    energy stop ended every axis solve (fewer steps than the residual stop
    takes), the bound is below one rounding of the largest affine energy."""
    op, pre = on_fft_route(g).operator, g.operator.preconditioner
    t = homogenized_tensor(g)
    A_ref, X_ref = reference_tensor(g)
    factor = 2.0 / g.T ** g.d
    E = np.column_stack([f.values for f in t.correctors]) - X_ref
    assert factor * np.abs(E.T @ (op.L @ E)).max() <= t.error_bound
    rounding = EPS * factor * op.C.diagonal().max()
    assert np.abs(t.entries - A_ref).max() <= t.error_bound + 2.0 * np.sqrt(g.n_cell) * rounding
    residual_steps = [solve_corrector(op.L, op.B @ e, precondition=pre).iterations
                      for e in np.eye(g.d)]
    ended = all(f.iterations < s for f, s in zip(t.correctors, residual_steps))
    if ended:
        assert t.error_bound <= rounding * (1 + 1e-12)
    return t, ended


@pytest.fixture(scope="session")
def examples():
    return builtin_examples()


@pytest.fixture
def chain():
    return chain_graph()


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
