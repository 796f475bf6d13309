"""Finite-lattice results pinned at relative 1e-12: window values, Dirichlet
minima, hypothesis norms (also against a literal per-pair reference) and the
counts of a clamped window whose ghosts lie far outside it."""

import math
from fractions import Fraction

import numpy as np
import pytest

from lattice_homog import (BoundaryDatum, DirichletProblem, affine_datum,
                           finite_window_value, graph_from_edges,
                           instantiate_window, solve_dirichlet)
from lattice_homog.coarse import hypothesis_norms

from conftest import layered_square_lattice, random_square_lattice

REL = 1e-12
SQUARE = ((0, 1), (0, 1))
QUADRATIC = BoundaryDatum(lambda x: x[0] * x[0] - x[1], name="x*x - y")


def test_pinned_window_values(examples):
    r4 = random_square_lattice(4, np.random.default_rng(20240811))
    cases = [(examples["ex3"], [1.0], 16, 4.400545975737695),
             (r4, [1.0, 1.0], 16, 4.558492904148891),
             (examples["ex5"], [1.0], 64, 2.6848958333333344)]
    for g, z, K, want in cases:
        assert finite_window_value(g, z, K) == pytest.approx(want, rel=REL, abs=0)


def test_pinned_dirichlet_minima(examples):
    _, e = solve_dirichlet(DirichletProblem(layered_square_lattice(), SQUARE,
                                            Fraction(1, 16), QUADRATIC))
    assert e == pytest.approx(12.69361444849998, rel=REL, abs=0)
    _, e = solve_dirichlet(DirichletProblem(examples["ex5"], ((0, 1),), Fraction(1, 32),
                                            affine_datum(0.0, [1.0])))
    assert e == pytest.approx(2.729166666666666, rel=REL, abs=0)


def test_pinned_clamped_window_counts():
    # connected through offsets 9 and 10 (gcd 1): every ghost lies 9 or 10
    # cells outside the window
    g = graph_from_edges(1, 0, 1, [(0,)], [((0,), (0,), (9,), 1.0),
                                           ((0,), (0,), (10,), 1.0)])
    for K, counts in ((4, (4, 0, 16, 10)), (12, (12, 5, 38, 20))):
        fg = instantiate_window(g, [(0, K)], wrap="clamped")
        assert (len(fg.vertices), len(fg.edges), len(fg.ghost_edges),
                len(fg.boundary_vertices)) == counts


def reference_hypothesis_norms(u, domain):
    """The hypothesis norms by the definition: every edge, every cell pair."""
    g = u.graph
    eps = float(u.scale)
    d, T = g.d, g.T
    M = T
    l2 = eps ** d * float(u.values @ u.values)
    layer = 2.0 * eps * math.sqrt(d) * T
    interior = set()
    for cell in u.full_cells():
        anchor = [eps * c * T for c in cell]
        if min(min(x - a, b - x) for (a, b), x in zip(domain, anchor)) > layer:
            interior.add(cell)
    index = {(tuple(p), int(ni)): i for i, (p, ni) in enumerate(zip(u.positions, u.node_ids))}
    edges = []
    for (p, ni), i in index.items():
        for orb in g.orbits:
            if g.node_index(orb.u) != ni:
                continue
            dd, _ = orb.displacement(T)
            j = index.get((tuple(a + b for a, b in zip(p, dd)), g.node_index(orb.v)))
            if j is not None:
                edges.append((i, j))
    grad = 0.0
    for cell in sorted(interior):
        for m in range(d):
            other = tuple(c + (1 if mm == m else 0) for mm, c in enumerate(cell))
            if other not in interior:
                continue
            lo = [min(a, b) * T - (M - 1) for a, b in zip(cell, other)]
            hi = [(max(a, b) + 1) * T - 1 + (M - 1) for a, b in zip(cell, other)]
            for a, b in edges:
                if all(l <= x <= h for l, x, h in zip(lo, u.positions[a], hi)) and \
                   all(l <= x <= h for l, x, h in zip(lo, u.positions[b], hi)):
                    grad += 2.0 * (u.values[a] - u.values[b]) ** 2
    return l2, grad * eps ** (d - 2)


def test_pinned_hypothesis_norms():
    u, _ = solve_dirichlet(DirichletProblem(layered_square_lattice(), SQUARE,
                                            Fraction(1, 8), QUADRATIC))
    l2, grad = hypothesis_norms(u, [(0.0, 1.0), (0.0, 1.0)])
    assert l2 == pytest.approx(0.6250822721533736, rel=REL, abs=0)
    assert grad == pytest.approx(0.8535504553339827, rel=REL, abs=0)
    ref = reference_hypothesis_norms(u, [(0.0, 1.0), (0.0, 1.0)])
    assert (l2, grad) == pytest.approx(ref, rel=REL, abs=0)


@pytest.mark.parametrize("name,eps", [("ex1", Fraction(1, 16)), ("ex4", Fraction(1, 16)),
                                      ("ex5", Fraction(1, 8)), ("ex6", Fraction(1, 8))])
def test_hypothesis_norms_match_reference(examples, name, eps):
    g = examples[name]
    phi = BoundaryDatum(lambda x: math.sin(3.0 * x[0]), name="sin 3x")
    u, _ = solve_dirichlet(DirichletProblem(g, ((0, 1),), eps, phi))
    got = hypothesis_norms(u, [(0.0, 1.0)])
    assert got == pytest.approx(reference_hypothesis_norms(u, [(0.0, 1.0)]), rel=REL, abs=0)
