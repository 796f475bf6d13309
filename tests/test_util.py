from lattice_homog.coarse import check_two_connectedness
from lattice_homog.util import parallel_map

from conftest import square_lattice


def test_parallel_map_preserves_order():
    assert parallel_map(lambda x: x * x, range(7)) == [x * x for x in range(7)]


def test_two_dimensional_inequalities():
    g = square_lattice(1.0, 2.0)
    rep = check_two_connectedness(g, trials=40, seed=3)
    assert rep.holds
