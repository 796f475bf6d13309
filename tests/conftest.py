import numpy as np
import pytest

from lattice_homog import builtin_examples, graph_from_edges


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


def random_square_lattice(T, rng):
    """T x T square cell with U(0.5, 2) bond weights: a multi-node d=2 cell."""
    edges = []
    for x in range(T):
        for y in range(T):
            edges.append(((x, y), ((x + 1) % T, y), (int(x == T - 1), 0),
                          float(rng.uniform(0.5, 2.0))))
            edges.append(((x, y), (x, (y + 1) % T), (0, int(y == T - 1)),
                          float(rng.uniform(0.5, 2.0))))
    return graph_from_edges(2, 0, T, [(x, y) for x in range(T) for y in range(T)], edges)


@pytest.fixture(scope="session")
def examples():
    return builtin_examples()


@pytest.fixture
def chain():
    return chain_graph()


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
