from lattice_homog.util import parallel_map


def test_parallel_map_preserves_order():
    assert parallel_map(lambda x: x * x, range(7)) == [x * x for x in range(7)]
