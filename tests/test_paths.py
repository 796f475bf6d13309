"""Path constants and inequality-harness ratios pinned exactly (==): every
field of compute_path_constants and the worst ratios of both harnesses at 60
trials, seed 5, on the fixtures, the conftest lattices and the layered
lattice re-tiled to periods 2 and 4."""

import dataclasses

import pytest

from lattice_homog import (check_poincare_wirtinger, check_two_connectedness,
                           compute_path_constants, normalize_period)

from conftest import (chain_graph, layered_square_lattice, random_square_lattice,
                      skew_lattice, square_lattice)

# name: ((C_two, C_pw, M, max_translation_path, max_pair_path, min_weight,
#         translation_multiplicity, pair_multiplicity),
#        two-connectedness worst ratio, Poincare-Wirtinger worst ratio)
PINNED = {
    'ex1': ((2.4, 8.0, 2, 4, 4, 1.0, 3, 10),
           0.08333333333333338, 0.03491251935806441),
    'ex2': ((2.0, 1.0, 1, 2, 1, 1.0, 2, 2),
           0.125, 0.25000000000000006),
    'ex3': ((0.5, 2.0, 2, 1, 2, 1.0, 1, 2),
           0.18518511509580857, 0.08294038747922265),
    'ex4': ((0.5, 1.0, 1, 1, 1, 1.0, 1, 2),
           0.33333333333333337, 0.25000000000000006),
    'ex5': ((3.2, 7.2, 4, 4, 3, 1.0, 4, 12),
           0.13157894736842113, 0.03632478632478635),
    'ex6': ((1.5, 3.0, 2, 3, 2, 1.0, 2, 6),
           0.13333333333333355, 0.04188093868584643),
    'chain': ((1.0, 0.0, 1, 1, 0, 1.0, 1, 1),
             0.5, 0.0),
    'square': ((1.0, 0.0, 1, 1, 0, 0.5, 1, 1),
              0.5, 0.0),
    'skew': ((1.0, 0.0, 1, 1, 0, 0.25, 1, 1),
            0.5, 0.0),
    'layered': ((0.5, 3.0, 1, 1, 1, 0.3333333333333333, 1, 2),
               0.5, 0.08333333333333336),
    'random4': ((1.0, 36.5015799162784, 4, 4, 6, 0.5753175629155369, 4, 56),
               0.06138060533636998, 0.0034000960244543036),
    'layered_T2': ((0.5, 18.0, 2, 2, 3, 0.3333333333333333, 2, 16),
                  0.07905174229408062, 0.003170289855072464),
    'layered_T4': ((0.5, 55.78125, 4, 4, 7, 0.3333333333333333, 4, 85),
                  0.04699867548973588, 0.0017970134792991655),
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
