"""The graph's canonical form, pinned as `serialize` text.

Every constructor ends in the same canonical form: nodes sorted, each orbit
oriented with the smaller endpoint first (a self-orbit with its first
nonzero offset component positive) and orbits sorted by (u, v, offset).
The texts below are those of the re-tiled and generated cells the solvers
are tested on; the long ones are pinned by line count and SHA-256.
"""

import hashlib

import numpy as np
import pytest

from lattice_homog import (homogenized_tensor, instantiate_window, normalize_period,
                           serialize, validate)

from conftest import layered_square_lattice, random_square_lattice, random_strip

EX5_BY_4 = """\
d 1
k 1
T 4
node 0 1
node 1 1
node 2 1
node 3 0
node 3 2
edge (0 1) (1 1) 1.0
edge (0 1) (3 0)-1 1.0
edge (0 1) (3 2)-1 1.0
edge (1 1) (2 1) 1.0
edge (2 1) (3 0) 1.0
edge (2 1) (3 2) 1.0
"""

PINNED = {
    "L2 x2": (35, "6d613d784bd4ebfdf01036649ee3468654479de9f13715facc26812e3cd74e86"),
    "L2 x3": (75, "ead38e603a0de04e4ce9a25d2bb99313edb675e64789fe2a5b640957fb0dd2f3"),
    "L2 x8": (515, "91ff65b786a6e456c982cc1675a6b1996c4db679ea9e94f67e4d9c12e56c81a8"),
    "R(4)": (51, "2ba8bd5ddad3c3985ce349cd3a1e2813537ee2161f29266b194208df75bd070a"),
    "strip(8)": (39, "d23dbb33933cf3f471c8d21d9d757bd16a8840a7babe34ac1951f8b685c36d30"),
}


def _pinned_graph(name):
    if name.startswith("L2 x"):
        return normalize_period(layered_square_lattice(), int(name[4:]))
    if name == "R(4)":
        return random_square_lattice(4, np.random.default_rng(4))
    return random_strip(8, np.random.default_rng(8))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_serialize_text_pinned(name):
    text = serialize(_pinned_graph(name))
    lines, digest = PINNED[name]
    assert len(text.splitlines()) == lines
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_serialize_text_pinned_ex5_by_4(examples):
    assert serialize(normalize_period(examples["ex5"], 4)) == EX5_BY_4


@pytest.mark.parametrize("name", sorted(PINNED))
def test_object_fields_are_python_scalars(name):
    g = _pinned_graph(name)
    for node in g.nodes:
        assert all(type(c) is int for c in node.dpos + node.kpos)
    for orb in g.orbits:
        assert type(orb.offset) is tuple and all(type(c) is int for c in orb.offset)
        assert type(orb.weight) is float


def test_views_are_lazy_and_arrays_read_only(rng):
    graphs = [random_square_lattice(4, rng), normalize_period(layered_square_lattice(), 4)]
    for g in graphs:
        homogenized_tensor(g)
        instantiate_window(g, [(-1, 2)] * g.d)
        assert validate(g).ok
        assert not {"nodes", "orbits", "_index"} & set(vars(g))
        for a in (g.coords, g.dpos, g.kpos, g.u, g.v, g.offset, g.w):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            g.w[0] = 1.0
        nodes = g.nodes
        assert g.nodes is nodes and g.orbits is g.orbits
        assert len(nodes) == g.n_cell and len(g.orbits) == len(g.w)
