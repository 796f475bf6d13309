"""Path constants, harness ratios and witness paths pinned exactly (==):
every field of compute_path_constants and the exact worst ratios of both
harnesses on the fixtures, the conftest lattices and the layered
lattice re-tiled to periods 2 and 4; the constants alone at period 8; and
every witness_path on the fixtures and on a graph whose witness leaves the
first search box."""

import dataclasses

import pytest

from lattice_homog import (check_poincare_wirtinger, check_two_connectedness,
                           compute_path_constants, graph_from_edges, normalize_period,
                           witness_path)

from conftest import (chain_graph, layered_square_lattice, random_square_lattice,
                      skew_lattice, square_lattice)

# name: ((C_two, C_pw, M, max_translation_path, max_pair_path, min_weight,
#         translation_multiplicity, pair_multiplicity),
#        two-connectedness worst ratio, Poincare-Wirtinger worst ratio)
PINNED = {
    'ex1': ((2.4, 8.0, 2, 4, 4, 1.0, 3, 10),
           0.16666666666666669, 0.08689926270013795),
    'ex2': ((2.0, 1.0, 1, 2, 1, 1.0, 2, 2),
           0.125, 0.25),
    'ex3': ((0.5, 2.0, 2, 1, 2, 1.0, 1, 2),
           0.4, 0.125),
    'ex4': ((0.5, 1.0, 1, 1, 1, 1.0, 1, 2),
           0.375, 0.25),
    'ex5': ((3.2, 7.2, 4, 4, 3, 1.0, 4, 12),
           0.3062499999999999, 0.13385443720487053),
    'ex6': ((1.5, 3.0, 2, 3, 2, 1.0, 2, 6),
           0.24999999999999992, 0.0833333333333333),
    'chain': ((1.0, 0.0, 1, 1, 0, 1.0, 1, 1),
             0.5, 0.0),
    'square': ((1.0, 0.0, 1, 1, 0, 0.5, 1, 1),
              0.5, 0.0),
    'skew': ((1.0, 0.0, 1, 1, 0, 0.25, 1, 1),
            0.5, 0.0),
    'layered': ((0.5, 3.0, 1, 1, 1, 0.3333333333333333, 1, 2),
               0.5, 0.08333333333333333),
    'random4': ((1.0, 36.5015799162784, 4, 4, 6, 0.5753175629155369, 4, 56),
               0.17838104249233408, 0.013785389635773533),
    'layered_T2': ((0.5, 18.0, 2, 2, 3, 0.3333333333333333, 2, 16),
                  0.17894146878314107, 0.008694226786626583),
    'layered_T4': ((0.5, 55.78125, 4, 4, 7, 0.3333333333333333, 4, 85),
                  0.13399056275851629, 0.008201022999590371),
}


def _graph(name, examples, rng):
    if name in examples:
        return examples[name]
    if name.startswith("layered_T"):
        return normalize_period(layered_square_lattice(), int(name[len("layered_T"):]))
    return {"chain": chain_graph, "square": square_lattice, "skew": skew_lattice,
            "layered": layered_square_lattice,
            "random4": lambda: random_square_lattice(4, rng)}[name]()


@pytest.mark.parametrize("name", list(PINNED))
def test_pinned_path_constants_and_ratios(name, examples, rng):
    g = _graph(name, examples, rng)
    consts, two, pw = PINNED[name]
    assert dataclasses.astuple(compute_path_constants(g)) == consts
    assert check_two_connectedness(g, trials=60, seed=5).worst_ratio == two
    assert check_poincare_wirtinger(g, trials=60, seed=5).worst_ratio == pw


def test_pinned_path_constants_period_8():
    # n = 128; the harnesses are left out at this size
    g = normalize_period(layered_square_lattice(), 8)
    assert dataclasses.astuple(compute_path_constants(g)) == (
        0.5, 227.8125, 8, 8, 15, 0.3333333333333333, 8, 648)


def gcd_9_10_graph():
    """Z with bonds of lengths 9 and 10: the e_1 witness 0 -> -9 -> 1 leaves +-4 cells."""
    return graph_from_edges(1, 0, 1, [(0,)], [((0,), (0,), (9,), 1.0),
                                           ((0,), (0,), (10,), 1.0)])


# name: {(source index, target index, axis): [(node index, cell), ...]}, d = 1
WITNESSES = {
    'ex1': {
        (0, 0, 0): [(0, 0), (2, 0), (0, 1)],
        (0, 1, 0): [(0, 0), (2, 0), (3, 0), (4, 0), (1, 1)],
        (0, 2, 0): [(0, 0), (2, 0), (0, 1), (2, 1)],
        (0, 3, 0): [(0, 0), (2, 0), (0, 1), (2, 1), (3, 1)],
        (0, 4, 0): [(0, 0), (2, 0), (0, 1), (2, 1), (3, 1), (4, 1)],
        (1, 0, 0): [(1, 0), (4, 0), (3, 0), (2, 0), (0, 1)],
        (1, 1, 0): [(1, 0), (4, 0), (1, 1)],
        (1, 2, 0): [(1, 0), (4, 0), (1, 1), (4, 1), (3, 1), (2, 1)],
        (1, 3, 0): [(1, 0), (4, 0), (1, 1), (4, 1), (3, 1)],
        (1, 4, 0): [(1, 0), (4, 0), (1, 1), (4, 1)],
        (2, 0, 0): [(2, 0), (0, 1)],
        (2, 1, 0): [(2, 0), (3, 0), (4, 0), (1, 1)],
        (2, 2, 0): [(2, 0), (0, 1), (2, 1)],
        (2, 3, 0): [(2, 0), (0, 1), (2, 1), (3, 1)],
        (2, 4, 0): [(2, 0), (0, 1), (2, 1), (3, 1), (4, 1)],
        (3, 0, 0): [(3, 0), (2, 0), (0, 1)],
        (3, 1, 0): [(3, 0), (4, 0), (1, 1)],
        (3, 2, 0): [(3, 0), (2, 0), (0, 1), (2, 1)],
        (3, 3, 0): [(3, 0), (2, 0), (0, 1), (2, 1), (3, 1)],
        (3, 4, 0): [(3, 0), (4, 0), (1, 1), (4, 1)],
        (4, 0, 0): [(4, 0), (3, 0), (2, 0), (0, 1)],
        (4, 1, 0): [(4, 0), (1, 1)],
        (4, 2, 0): [(4, 0), (1, 1), (4, 1), (3, 1), (2, 1)],
        (4, 3, 0): [(4, 0), (1, 1), (4, 1), (3, 1)],
        (4, 4, 0): [(4, 0), (1, 1), (4, 1)],
    },
    'ex2': {
        (0, 0, 0): [(0, 0), (1, 0), (0, 1)],
        (0, 1, 0): [(0, 0), (1, 1)],
        (1, 0, 0): [(1, 0), (0, 1)],
        (1, 1, 0): [(1, 0), (0, 1), (1, 1)],
    },
    'ex3': {
        (0, 0, 0): [(0, 0), (0, 1)],
        (0, 1, 0): [(0, 0), (1, 1)],
        (1, 0, 0): [(1, 0), (0, -1), (0, 0), (0, 1)],
        (1, 1, 0): [(1, 0), (1, 1)],
    },
    'ex4': {
        (0, 0, 0): [(0, 0), (0, 1)],
        (0, 1, 0): [(0, 0), (1, 1)],
        (1, 0, 0): [(1, 0), (0, 0), (0, 1)],
        (1, 1, 0): [(1, 0), (1, 1)],
    },
    'ex5': {
        (0, 0, 0): [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)],
        (0, 1, 0): [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1)],
        (0, 2, 0): [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1)],
        (0, 3, 0): [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (3, 1)],
        (0, 4, 0): [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (4, 1)],
        (1, 0, 0): [(1, 0), (2, 0), (3, 0), (0, 1)],
        (1, 1, 0): [(1, 0), (2, 0), (3, 0), (0, 1), (1, 1)],
        (1, 2, 0): [(1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1)],
        (1, 3, 0): [(1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (3, 1)],
        (1, 4, 0): [(1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (4, 1)],
        (2, 0, 0): [(2, 0), (3, 0), (0, 1)],
        (2, 1, 0): [(2, 0), (3, 0), (0, 1), (1, 1)],
        (2, 2, 0): [(2, 0), (3, 0), (0, 1), (1, 1), (2, 1)],
        (2, 3, 0): [(2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (3, 1)],
        (2, 4, 0): [(2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (4, 1)],
        (3, 0, 0): [(3, 0), (0, 1)],
        (3, 1, 0): [(3, 0), (0, 1), (1, 1)],
        (3, 2, 0): [(3, 0), (0, 1), (1, 1), (2, 1)],
        (3, 3, 0): [(3, 0), (0, 1), (1, 1), (2, 1), (3, 1)],
        (3, 4, 0): [(3, 0), (0, 1), (1, 1), (2, 1), (4, 1)],
        (4, 0, 0): [(4, 0), (0, 1)],
        (4, 1, 0): [(4, 0), (0, 1), (1, 1)],
        (4, 2, 0): [(4, 0), (0, 1), (1, 1), (2, 1)],
        (4, 3, 0): [(4, 0), (0, 1), (1, 1), (2, 1), (3, 1)],
        (4, 4, 0): [(4, 0), (0, 1), (1, 1), (2, 1), (4, 1)],
    },
    'ex6': {
        (0, 0, 0): [(0, 0), (1, 0), (2, 0), (0, 1)],
        (0, 1, 0): [(0, 0), (3, 0), (1, 1)],
        (0, 2, 0): [(0, 0), (3, 0), (1, 1), (2, 1)],
        (0, 3, 0): [(0, 0), (1, 0), (2, 0), (0, 1), (3, 1)],
        (1, 0, 0): [(1, 0), (2, 0), (0, 1)],
        (1, 1, 0): [(1, 0), (0, 0), (3, 0), (1, 1)],
        (1, 2, 0): [(1, 0), (0, 0), (3, 0), (1, 1), (2, 1)],
        (1, 3, 0): [(1, 0), (2, 0), (0, 1), (3, 1)],
        (2, 0, 0): [(2, 0), (0, 1)],
        (2, 1, 0): [(2, 0), (0, 1), (1, 1)],
        (2, 2, 0): [(2, 0), (0, 1), (1, 1), (2, 1)],
        (2, 3, 0): [(2, 0), (0, 1), (3, 1)],
        (3, 0, 0): [(3, 0), (1, 1), (0, 1)],
        (3, 1, 0): [(3, 0), (1, 1)],
        (3, 2, 0): [(3, 0), (1, 1), (2, 1)],
        (3, 3, 0): [(3, 0), (1, 1), (0, 1), (3, 1)],
    },
    'gcd_9_10': {
        (0, 0, 0): [(0, 0), (0, -9), (0, 1)],
    },
}


@pytest.mark.parametrize("name", list(WITNESSES))
def test_pinned_witness_paths(name, examples):
    g = examples[name] if name in examples else gcd_9_10_graph()
    for (i, j, m), path in WITNESSES[name].items():
        assert witness_path(g, g.nodes[i], g.nodes[j], m) == [
            (g.nodes[x], (c,)) for x, c in path]
