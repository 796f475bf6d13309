import logging
import re
from collections import Counter

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from lattice_homog import (
    EdgeOrbit,
    InvalidDirection,
    LatticeGraph,
    NoConvergence,
    TooLarge,
    assemble_quotient_system,
    brute_force_cell_oracle,
    builtin_examples,
    cell_energy,
    corrector,
    f_hom,
    graph_from_edges,
    homogenized_tensor,
    normalize_period,
    solve_corrector,
)
from lattice_homog import cell as cell_module
from lattice_homog.bloch import PINV_RTOL, base_cell, symbol
from lattice_homog.cell import convention_factor
from lattice_homog import graph as graph_module
from lattice_homog import solve
from lattice_homog.graph import PeriodicOperator
from lattice_homog.lgf import parse

from conftest import (
    EPS,
    check_certificate,
    cube_lattice,
    layered_square_lattice,
    on_fft_route,
    plain_cg_tensor,
    pseudo_inverse,
    random_square_lattice,
    reference_tensor,
    random_strip,
    square_cell,
    skew_lattice,
    square_lattice,
)


# ---------------------------------------------------------------------------
# assembly


def test_assemble_chain(chain):
    L, b, c = assemble_quotient_system(chain, [1.0])
    assert L.shape == (1, 1) and L.toarray()[0, 0] == 0.0
    assert b[0] == 0.0
    assert c == 1.0  # single-count affine energy of the one orbit


def test_assemble_ex4_opposite_entries(examples):
    L, b, _ = assemble_quotient_system(examples["ex4"], [1.0])
    assert b[0] == -b[1] != 0.0
    dense = L.toarray()
    assert np.allclose(dense, dense.T)
    assert np.allclose(dense @ np.ones(2), 0.0)


def test_assemble_zero_direction(examples):
    _, b, c = assemble_quotient_system(examples["ex4"], [0.0])
    assert np.all(b == 0.0) and c == 0.0


def test_assemble_bad_direction(chain):
    with pytest.raises(InvalidDirection):
        assemble_quotient_system(chain, [1.0, 2.0])
    with pytest.raises(InvalidDirection):
        assemble_quotient_system(chain, [float("nan")])


def _per_orbit_assembly(graph, z):
    """Reference (L, b, c): one orbit at a time, from EdgeOrbit.displacement."""
    n = graph.n_cell
    L, b, c = np.zeros((n, n)), np.zeros(n), 0.0
    for orb in graph.orbits:
        i, j = graph.node_index(orb.u), graph.node_index(orb.v)
        g = float(np.dot(z, orb.displacement(graph.T)[0]))
        w = orb.weight
        L[i, i] += w
        L[j, j] += w
        L[i, j] -= w
        L[j, i] -= w
        b[j] += w * g
        b[i] -= w * g
        c += w * g * g
    return L, b, c


def test_operator_matches_per_orbit_assembly(examples, rng):
    graphs = list(examples.values()) + [layered_square_lattice(),
                                        random_square_lattice(4, rng)]
    for g in graphs:
        for _ in range(3):
            z = rng.standard_normal(g.d)
            L, b, c = assemble_quotient_system(g, z)
            L_ref, b_ref, c_ref = _per_orbit_assembly(g, z)
            assert np.allclose(L.toarray(), L_ref, rtol=0, atol=1e-12)
            assert np.allclose(b, b_ref, rtol=0, atol=1e-12)
            assert c == pytest.approx(c_ref, rel=1e-12)


def test_operator_is_lazy_and_read_only(rng):
    g = random_square_lattice(3, rng)
    assert "operator" not in vars(g)
    op = g.operator
    assert g.operator is op
    with pytest.raises(ValueError):
        op.L.data[0] = 0.0
    with pytest.raises(ValueError):
        op.B[0, 0] = 0.0
    assert "preconditioner" not in vars(op)
    pre = op.preconditioner
    assert op.preconditioner is pre
    with pytest.raises(ValueError):
        pre.inverse[0, 0] = 0.0
    assert "_axis_solution" not in vars(op)
    X, errors = op.axis_correctors, op.axis_errors
    assert op.route == "band" and op.axis_correctors is X and op.axis_errors is errors
    for a in (X, errors):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_operator_built_once_per_graph(monkeypatch, rng):
    built = []
    init = PeriodicOperator.__init__

    def counting_init(self, graph):
        built.append(graph)
        init(self, graph)

    monkeypatch.setattr(PeriodicOperator, "__init__", counting_init)
    g = random_square_lattice(4, rng)
    first = homogenized_tensor(g)
    op = g.operator
    second = homogenized_tensor(g)
    f_hom(g, [1.0, -0.5])
    assemble_quotient_system(g, [0.0, 1.0])
    assert len(built) == 1 and g.operator is op
    assert np.array_equal(first.entries, second.entries)


# ---------------------------------------------------------------------------
# correctors


def test_corrector_chain_is_zero(chain):
    ch = corrector(chain, [2.5])
    assert np.all(ch.values == 0.0)
    assert ch.residual == 0.0


def test_corrector_ex4_quarter_swing(examples):
    ch = corrector(examples["ex4"], [1.0])
    assert np.allclose(sorted(ch.values), [-0.25, 0.25], atol=1e-12)
    # minimizer gap: value at (0,1) minus value at (0,0) equals -z/2
    g = examples["ex4"]
    vals = ch.as_dict(g)
    assert abs((vals["(0 1)"] - vals["(0 0)"]) + 0.5) < 1e-12


def test_corrector_ex5_layer_values(examples):
    g = examples["ex5"]
    ch = corrector(g, [1.0])
    u = {str(node): node.dpos[0] + v for node, v in zip(g.nodes, ch.values)}
    assert abs((u["(2 1)"] - u["(1 1)"]) - 4.0 / 3.0) < 1e-10
    assert abs((u["(3 0)"] - u["(1 1)"]) - 2.0) < 1e-10
    assert abs(u["(3 0)"] - u["(3 2)"]) < 1e-12


def test_corrector_mean_zero(examples):
    for g in examples.values():
        ch = corrector(g, [1.0])
        assert abs(ch.values.mean()) < 1e-12


def test_corrector_iteration_cap(examples):
    L, b, _ = assemble_quotient_system(examples["ex4"], [1.0])
    with pytest.raises(NoConvergence) as err:
        solve_corrector(L, b, tol=1e-14, max_iterations=0)
    assert err.value.residual > 0


def test_corrector_breakdown_names_itself(examples):
    L, b, _ = assemble_quotient_system(examples["ex4"], [1.0])
    with pytest.raises(NoConvergence, match="broke down at iteration 0") as err:
        solve_corrector(-L, b)
    assert "residual" in str(err.value)
    assert err.value.residual == pytest.approx(np.linalg.norm(b), rel=1e-15)


# ---------------------------------------------------------------------------
# energies against the published reference values and the oracle

REFERENCE_VALUES = {
    "ex1": 4.0,
    "ex2": 4.0,
    "ex3": 4.0,
    "ex4": 2.5,
    "ex5": 8.0 / 3.0,
    "ex6": 4.0,
}


def test_published_values_match_one_convention(examples):
    for name, target in REFERENCE_VALUES.items():
        g = examples[name]
        double = f_hom(g, [1.0], convention="double")
        single = f_hom(g, [1.0], convention="single")
        assert abs(double - 2.0 * single) < 1e-12 * double
        match = [c for c, v in (("double", double), ("single", single))
                 if abs(v - target) <= 1e-9 * target]
        assert match, f"{name}: neither convention hits {target}"


def test_energy_matches_oracle(examples):
    for name, g in examples.items():
        for z in ([1.0], [-2.0], [0.5]):
            ours = f_hom(g, z, convention="double")
            ref = brute_force_cell_oracle(g, z, convention="double")
            assert abs(ours - ref) <= 1e-9 * max(abs(ref), 1e-30), name


def test_chain_energy_double_is_two(chain):
    ch = corrector(chain, [1.0])
    assert cell_energy(chain, [1.0], ch, convention="double") == pytest.approx(2.0, abs=1e-14)


def test_gauge_invariance(examples):
    g = examples["ex5"]
    ch = corrector(g, [1.0])
    base = cell_energy(g, [1.0], ch)
    shifted = type(ch)(ch.values + 17.5, ch.direction, ch.residual)
    assert abs(cell_energy(g, [1.0], shifted) - base) < 1e-12 * abs(base)


def test_first_order_optimality(examples, rng):
    for g in examples.values():
        z = [1.0]
        L, b, _ = assemble_quotient_system(g, z)
        ch = corrector(g, z, tol=1e-10)
        assert np.linalg.norm(L @ ch.values + b) <= 1e-10 * max(np.linalg.norm(b), 1.0)
        base = cell_energy(g, z, ch)
        for _ in range(5):
            delta = rng.standard_normal(g.n_cell) * 1e-4
            delta -= delta.mean()
            pert = type(ch)(ch.values + delta, ch.direction, ch.residual)
            assert cell_energy(g, z, pert) >= base - 1e-10


def test_quadratic_homogeneity(examples):
    for g in examples.values():
        base = f_hom(g, [1.0])
        for alpha in (2.0, 3.0, 0.5):
            val = f_hom(g, [alpha])
            assert abs(val - alpha ** 2 * base) <= 1e-10 * abs(val)
        assert abs(f_hom(g, [-1.0]) - base) <= 1e-10 * base


def test_weight_monotonicity(examples):
    from lattice_homog import EdgeOrbit, LatticeGraph
    for name, g in examples.items():
        base = f_hom(g, [1.0])
        for idx in range(len(g.orbits)):
            orbits = [EdgeOrbit(o.u, o.v, o.offset, o.weight * (2.0 if i == idx else 1.0))
                      for i, o in enumerate(g.orbits)]
            g2 = LatticeGraph(g.d, g.k, g.T, g.nodes, orbits, M=g.M)
            assert f_hom(g2, [1.0]) >= base - 1e-10, (name, idx)


def test_convention_factor_validation():
    assert convention_factor("double") == 2.0
    assert convention_factor("single") == 1.0
    with pytest.raises(ValueError):
        convention_factor("both")


# ---------------------------------------------------------------------------
# tensor


def test_tensor_fixtures_positive(examples):
    for g in examples.values():
        t = homogenized_tensor(g)
        assert t.entries.shape == (g.d, g.d)
        assert np.allclose(t.entries, t.entries.T)
        assert np.linalg.eigvalsh(t.entries).min() > 0


def test_tensor_square_lattice():
    t = homogenized_tensor(square_lattice(1.5, 0.5))
    assert np.allclose(t.entries, np.diag([3.0, 1.0]), atol=1e-12)


def test_tensor_skew_lattice_polarization(rng):
    g = skew_lattice(1.0, 2.0, 0.25)
    t = homogenized_tensor(g)
    # one-node cell: corrector vanishes, tensor is the affine quadratic form
    expect = np.array([[2.0 + 0.5, 0.5], [0.5, 4.0 + 0.5]])
    assert np.allclose(t.entries, expect, atol=1e-12)
    for _ in range(20):
        z = rng.standard_normal(2)
        direct = f_hom(g, z)
        assert abs(t.quadratic_form(z) - direct) <= 1e-8 * max(abs(direct), 1e-12)


def test_tensor_layered_lattice_exact():
    expect = np.array([[20.0 / 3.0, 2.0 / 3.0], [2.0 / 3.0, 14.0 / 3.0]])
    for T in (8, 48):    # the band (n = 128), and FFT-PCG with exact reference
        t = homogenized_tensor(normalize_period(layered_square_lattice(), T))
        assert np.all(np.abs(t.entries - expect) <= 1e-9 * np.abs(expect))
        assert t.entries[0, 1] == t.entries[1, 0]


def test_loop_orbits_leave_B_exactly_zero():
    # L2's only orbit joining two nodes has zero displacement, and a loop
    # orbit adds nothing to B: B and both correctors are exactly 0
    g = layered_square_lattice()
    assert np.array_equal(g.operator.B, np.zeros((2, 2)))
    for field in homogenized_tensor(g).correctors:
        assert np.array_equal(field.values, np.zeros(2))


def _cancelling_entries(graph):
    """(n, d) mask, one node and axis at a time: the nonzero signed terms
    +-w disp_m of the links at node i cancel in pairs."""
    disp = graph.operator.disp
    mask = np.ones((graph.n_cell, graph.d), dtype=bool)
    for i in range(graph.n_cell):
        for m in range(graph.d):
            terms = Counter()
            for u, v, w, s in zip(graph.u.tolist(), graph.v.tolist(), graph.w.tolist(),
                                  disp[:, m].tolist()):
                if u != v and w * s != 0:
                    if v == i:
                        terms[w * s] += 1
                    if u == i:
                        terms[-w * s] += 1
            mask[i, m] = all(terms[-term] == count for term, count in terms.items())
    return mask


def test_cancelling_incidence_terms_leave_B_exactly_zero():
    # L2 re-tiled to 6 turns its loops into links whose terms cancel at
    # every node; one orbit made one ulp heavier unbalances the nodes it
    # touches by a residue-sized amount that is no residue: they keep the
    # bits of the sum in edge order, as every node of R(8) does
    l2 = normalize_period(layered_square_lattice(), 6)
    e = int(np.flatnonzero((l2.u != l2.v) & l2.operator.disp.any(axis=1))[0])
    orbit = l2.orbits[e]
    orbits = list(l2.orbits)
    orbits[e] = EdgeOrbit(orbit.u, orbit.v, orbit.offset, np.nextafter(orbit.weight, 4.0))
    unbalanced = LatticeGraph(l2.d, l2.k, l2.T, l2.nodes, orbits, M=l2.M)
    masks = []
    for g in (l2, unbalanced, random_square_lattice(8, np.random.default_rng(8))):
        wdisp = g.w[:, None] * g.operator.disp
        link = g.u != g.v
        edge_order = np.zeros((g.n_cell, g.d))
        np.add.at(edge_order, g.v[link], wdisp[link])
        np.add.at(edge_order, g.u[link], -wdisp[link])
        cancel = _cancelling_entries(g)
        B = g.operator.B
        assert not B[cancel].any() and np.array_equal(B[~cancel], edge_order[~cancel])
        assert edge_order[cancel].any() == cancel.any()     # residues were zeroed
        masks.append(cancel)
    assert masks[0].all() and 0 < (~masks[1]).sum() < 4 and not masks[2].any()
    assert 0 < np.abs(unbalanced.operator.B).max() <= 1e-15


def test_isolated_node_beside_loops_has_a_tensor():
    # node (0 0|0) has no orbit and node (0 0|1) only loops, so each is its
    # own quotient component; rounding residue in B made every corrector's
    # CG break down at iteration 0
    g = graph_from_edges(2, 1, 1, [(0, 0, 0), (0, 0, 1)],
                         [((0, 0, 1), (0, 0, 1), (0, 1), 1.0),
                          ((0, 0, 1), (0, 0, 1), (1, 1), 1.649159699934282)])
    C = g.operator.C
    assert np.array_equal(g.operator.B, np.zeros((2, 2)))
    t = homogenized_tensor(g)
    assert np.array_equal(t.entries, convention_factor("double") * 0.5 * (C + C.T))
    for field in t.correctors:
        assert np.array_equal(field.values, np.zeros(2))


def test_tensor_quadratic_form_equals_f_hom_multi_node(rng):
    g = random_square_lattice(4, rng)
    t = homogenized_tensor(g)
    assert t.entries[0, 1] == t.entries[1, 0]
    for _ in range(20):
        z = rng.standard_normal(2)
        direct = f_hom(g, z)
        assert abs(t.quadratic_form(z) - direct) <= 1e-9 * abs(direct)


def test_tensor_matches_oracle(examples, rng):
    graphs = dict(examples, layered=layered_square_lattice(),
                  random=random_square_lattice(4, rng))
    for name, g in graphs.items():
        A = homogenized_tensor(g).entries
        directions = list(np.eye(g.d)) + ([np.ones(g.d)] if g.d > 1 else [])
        for z in directions:
            ref = brute_force_cell_oracle(g, z)
            assert abs(z @ A @ z - ref) <= 1e-9 * abs(ref), (name, z)


def test_tensor_records_metadata(examples):
    t = homogenized_tensor(examples["ex1"], tol=1e-11, convention="single")
    assert t.convention == "single" and t.tolerance == 1e-11
    assert len(t.correctors) == 1


# ---------------------------------------------------------------------------
# oracle properties


def test_oracle_weight_scaling(examples):
    from lattice_homog import EdgeOrbit, LatticeGraph
    g = examples["ex4"]
    doubled = LatticeGraph(g.d, g.k, g.T, g.nodes,
                           [EdgeOrbit(o.u, o.v, o.offset, 2.0 * o.weight)
                            for o in g.orbits], M=g.M)
    a = brute_force_cell_oracle(g, [1.0])
    b = brute_force_cell_oracle(doubled, [1.0])
    assert abs(b - 2.0 * a) < 1e-12 * abs(b)


def test_oracle_quadratic(examples):
    g = examples["ex5"]
    a = brute_force_cell_oracle(g, [1.0])
    b = brute_force_cell_oracle(g, [3.0])
    assert abs(b - 9.0 * a) < 1e-12 * abs(b)


def test_oracle_size_cap():
    nodes = [(i,) for i in range(65)]
    edges = [((i,), ((i + 1) % 65,), (1 if i == 64 else 0,), 1.0) for i in range(65)]
    g = graph_from_edges(1, 0, 65, nodes, edges)
    with pytest.raises(TooLarge):
        brute_force_cell_oracle(g, [1.0])


# ---------------------------------------------------------------------------
# sub-periods and the FFT-preconditioned corrector


def _checkerboard(T):
    """A T = 2 square cell with one diagonal, re-tiled to period T: t = 2,
    n0 = 4, and a node order that is not the translate-major one."""
    nodes = [(x, y) for x in range(2) for y in range(2)]
    edges = [((x, y), ((x + 1) % 2, y), (x, 0), 1.0) for x, y in nodes]
    edges += [((x, y), (x, (y + 1) % 2), (0, y), 1.0) for x, y in nodes]
    edges.append(((0, 0), (1, 1), (0, 0), 0.5))
    return normalize_period(graph_from_edges(2, 0, 2, nodes, edges), T)


def test_sub_period_of_tilings(examples, rng):
    for g, t, n0 in [(random_square_lattice(4, rng), 1, 1),
                     (random_square_lattice(16, rng), 1, 1),
                     (normalize_period(layered_square_lattice(), 4), 1, 2),
                     (normalize_period(layered_square_lattice(), 16), 1, 2),
                     (_checkerboard(8), 2, 4)]:
        pre = g.operator.preconditioner
        assert (pre.t, pre.n0) == (t, n0)
    g = normalize_period(examples["ex5"], 256)
    assert (g.d, g.k, g.n_cell) == (1, 1, 320)
    pre = g.operator.preconditioner
    assert (pre.t, pre.n0) == (4, 5)


def test_no_sub_period_gives_no_preconditioner(examples):
    graphs = list(examples.values())
    graphs += [random_strip(P, np.random.default_rng(P)) for P in (8, 16, 64)]
    l2 = normalize_period(layered_square_lattice(), 16)
    graphs.append(LatticeGraph(l2.d, l2.k, l2.T, l2.nodes, l2.orbits[1:], M=l2.M))
    for g in graphs:
        assert base_cell(g.operator) is None, g
        assert g.operator.preconditioner is None


def test_base_cell_with_more_nodes_than_translates_gives_no_preconditioner():
    # n = 256 with n0 = 128 base nodes in 2 translates: the dense blocks
    # would outgrow the cell
    g = normalize_period(random_strip(64, np.random.default_rng(64)), 128)
    cell = base_cell(g.operator)
    assert (cell.t, cell.n0) == (64, 128)
    assert g.operator.preconditioner is None


def _stacked_lattice(d, T, layers, rng):
    """Z^d x {0..layers-1} of period T: U(0.5, 2) bonds along every axis in
    every layer, and rungs joining consecutive layers at every site; a
    t = 1 re-tiling with n0 = layers."""
    k = int(layers > 1)
    nodes = [site + (layer,) * k for site in np.ndindex(*(T,) * d) for layer in range(layers)]
    edges = []
    for node in nodes:
        for m in range(d):
            far = list(node)
            far[m] = (node[m] + 1) % T
            offset = tuple(int(a == m and node[m] == T - 1) for a in range(d))
            edges.append((node, tuple(far), offset, float(rng.uniform(0.5, 2.0))))
        if k and node[-1] + 1 < layers:
            edges.append((node, node[:-1] + (node[-1] + 1,), (0,) * d, 1.0))
    return graph_from_edges(d, k, T, nodes, edges)


def _nd_transform_preconditioner(pre, r):
    """FFTPreconditioner.__call__ through numpy's n-d transforms."""
    axes = tuple(range(len(pre.grid)))
    x = r if pre.order is None else r[pre.order]
    spectrum = np.fft.rfftn(x.reshape(pre.grid + (pre.n0,)), axes=axes)
    if pre.n0 == 1:
        spectrum = spectrum * pre.inverse
    else:
        spectrum = np.einsum("...ab,...b->...a", pre.inverse, spectrum)
    y = np.fft.irfftn(spectrum, s=pre.grid, axes=axes).reshape(-1)
    return y if pre.slot is None else y[pre.slot]


@pytest.mark.parametrize("d, T, layers", [
    (1, 16, 1), (1, 15, 1), (1, 16, 2), (2, 8, 1), (2, 7, 1), (2, 8, 2),
    (3, 4, 1), (3, 3, 1), (3, 5, 1), (3, 4, 2), (3, 3, 2)])
def test_fft_passes_are_the_nd_transforms(d, T, layers):
    # rfft then fft on the other axes in reverse order, ifft in forward
    # order then irfft: numpy's rfftn / irfftn bit for bit, in every d
    rng = np.random.default_rng(100 * d + 10 * T + layers)
    pre = _stacked_lattice(d, T, layers, rng).operator.preconditioner
    assert (pre.t, pre.n0, pre.grid) == (1, layers, (T,) * d) and pre.order is None
    for r in rng.standard_normal((3, T ** d * layers)):
        kept = r.copy()
        assert np.array_equal(pre(r), _nd_transform_preconditioner(pre, r))
        assert np.array_equal(r, kept)


def test_fft_passes_with_a_gathered_node_order(examples):
    # t > 1 cells: the checkerboard's nodes are not in translate-major
    # order, so the call gathers by `order` and scatters by `slot`
    rng = np.random.default_rng(3)
    for g, t in ((_checkerboard(8), 2), (normalize_period(examples["ex5"], 256), 4)):
        pre = g.operator.preconditioner
        assert pre.t == t
        for r in rng.standard_normal((3, g.n_cell)):
            assert np.array_equal(pre(r), _nd_transform_preconditioner(pre, r))
    assert _checkerboard(8).operator.preconditioner.order is not None


def _per_frequency_cut(op):
    """The real form of the pseudo-inverse symbol with each frequency's
    eigenvalues cut relative to that frequency's own largest: (F, 2 n0, 2 n0)."""
    cell = base_cell(op)
    d, K = len(cell.grid), cell.grid[0]
    freqs = [2.0 * np.pi * np.fft.fftfreq(K)] * (d - 1) + [2.0 * np.pi * np.fft.rfftfreq(K)]
    theta = np.stack(np.meshgrid(*freqs, indexing="ij"), axis=-1).reshape(-1, d)
    sym = symbol(cell, theta)
    vals, vecs = np.linalg.eigh(np.block([[sym.real, -sym.imag], [sym.imag, sym.real]]))
    keep = vals > PINV_RTOL * vals[:, -1:]
    inverse_vals = np.divide(1.0, vals, out=np.zeros_like(vals), where=keep)
    return (vecs * inverse_vals[:, None, :]) @ vecs.transpose(0, 2, 1)


def test_zero_frequency_inverse_is_exactly_zero():
    # a cut relative to each frequency's own largest eigenvalue kept the
    # rounding residue of the zero symbol at theta = 0 whenever it was
    # positive (here R(16) seed 2 and R(32) seeds 2 and 4); the constant
    # mode at theta = 0 is now dropped outright, and every other frequency
    # keeps its bits
    residues = 0
    graphs = [random_square_lattice(T, np.random.default_rng(seed))
              for T, seed in ((16, 1), (16, 2), (32, 2), (32, 4))]
    graphs.append(normalize_period(layered_square_lattice(), 16))
    for g in graphs:
        pre = g.operator.preconditioner
        old = _per_frequency_cut(g.operator)
        n0 = pre.n0
        if n0 == 1:
            want = old[:, 0, 0]
        else:
            want = old[:, :n0, :n0] + 1j * old[:, n0:, :n0]
        inverse = pre.inverse.reshape(want.shape)
        assert np.array_equal(inverse[1:], want[1:])
        if n0 == 1:
            residues += bool(want[0] != 0)
            assert inverse[0] == 0.0
        else:
            # the zero eigenvalue's constant eigenvector is cut: L_ref^+ 1 = 0
            assert np.abs(inverse[0] @ np.ones(n0)).max() <= 1e-15
    assert residues == 3


def _chain(T, weights):
    """d = 1 chain of period T: a bond of weight weights[s - 1] from every
    node to the node s further on."""
    nodes = [(x,) for x in range(T)]
    edges = [((x,), ((x + s) % T,), (int(x + s >= T),), w)
             for s, w in enumerate(weights, 1) for x in range(T)]
    return graph_from_edges(1, 0, T, nodes, edges)


@pytest.mark.parametrize("T, weights", [(4096, (1.0,)), (16, (1e-14, 1.0))])
def test_every_nonzero_frequency_keeps_its_inverse(T, weights):
    # the lowest frequency of a long chain has sin(pi / T)^2 of the largest
    # eigenvalue, and nearest bonds 1e-14 as heavy as the next-nearest put
    # theta = pi at 1e-14 of it, which a cut against the largest eigenvalue
    # over all frequencies would drop: each frequency is cut against its
    # own, so only the constant mode at theta = 0 maps to zero
    pre = _chain(T, weights).operator.preconditioner
    assert (pre.t, pre.n0, pre.grid) == (1, 1, (T,))
    theta = 2.0 * np.pi * np.fft.rfftfreq(T)
    eigenvalue = sum(2.0 * w * (1.0 - np.cos(s * theta)) for s, w in enumerate(weights, 1))
    inverse = pre.inverse.ravel()
    assert inverse[0] == 0.0
    rounding = 16 * EPS * 4.0 * sum(weights) / eigenvalue[1:]
    assert np.all(np.abs(inverse[1:] * eigenvalue[1:] - 1.0) <= rounding)
    if T == 16:
        assert eigenvalue[-1] < PINV_RTOL * eigenvalue.max()


def test_preconditioned_tensor_matches_plain_cg(examples, rng):
    graphs = [random_square_lattice(32, rng), normalize_period(layered_square_lattice(), 16),
              normalize_period(examples["ex5"], 256), _checkerboard(32)]
    for g in map(on_fft_route, graphs):
        A, ref = homogenized_tensor(g).entries, plain_cg_tensor(g)
        assert np.abs(A - ref).max() <= 1e-12 * np.abs(ref).max(), g


def test_preconditioned_iterations_stay_flat(rng):
    # the energy stop ends the R(64) axis correctors in at most 15 steps,
    # where the residual stop takes 18-19
    g = random_square_lattice(64, rng)
    op = g.operator
    for e, field in zip(np.eye(2), homogenized_tensor(g).correctors):
        residual_stop = solve_corrector(op.L, op.B @ e, precondition=op.preconditioner)
        assert 0 < field.iterations <= 15 < residual_stop.iterations


@pytest.mark.parametrize("make, energy_stopped", [
    (lambda: random_square_lattice(64, np.random.default_rng(64)), True),
    (lambda: random_square_lattice(32, np.random.default_rng(32), contrast=10), True),
    (lambda: random_square_lattice(32, np.random.default_rng(32), contrast=100), True),
    (lambda: _checkerboard(32), False),
    (lambda: normalize_period(builtin_examples()["ex5"], 256), False),
], ids=["R(64)", "KD(32,10)", "KD(32,100)", "checkerboard(32)", "ex5x256"])
def test_error_bound_certifies_the_fft_tensor(make, energy_stopped):
    # the exact references of the checkerboard and ex5 (rho = 1) stop both
    # routes on the residual test after one step
    assert check_certificate(make())[1] == energy_stopped


def test_error_bound_of_the_layered_lattice_is_below_rounding():
    # B's terms cancel in pairs at every node (2 + 1/3 - 2 - 1/3), so B is
    # exactly zero rather than a rounding residue, and every axis corrector
    # is exact zeros after 0 steps with a zero certificate; rho is 1 up to
    # the rounding of the mean of 2304 equal weights
    g = normalize_period(layered_square_lattice(), 48)
    assert g.operator.route == "fft" and not g.operator.B.any()
    assert 1.0 - 1e-12 <= g.operator.preconditioner.rho <= 1.0
    t, _ = check_certificate(g)
    assert all(f.iterations == 0 and not f.values.any() for f in t.correctors)
    assert t.error_bound == 0.0


def test_f_hom_on_the_fft_route_meets_the_reference(caplog):
    # f_hom takes the energy stop too: under one rounding of its affine
    # energy from the reference, plus the rounding of the sums, in at most
    # 15 steps
    g = random_square_lattice(64, np.random.default_rng(64))
    A_ref, _ = reference_tensor(g)
    op = g.operator
    for z in (np.array([1.0, -0.5]), np.array([0.25, 2.0])):
        c = 2.0 / g.T ** 2 * float(z @ op.C @ z)
        with caplog.at_level(logging.DEBUG, logger="lattice_homog"):
            value = f_hom(g, z)
        steps = int(re.search(r"iterations (\d+)", caplog.records[-1].getMessage())[1])
        assert 0 < steps <= 15
        assert abs(value - z @ A_ref @ z) <= EPS * c * (1.0 + 2.0 * np.sqrt(g.n_cell))


def test_dense_error_bound_is_the_iteration_error():
    # a small cell takes the band: its axis_errors are r_m^T L^+ r_m for the
    # residuals r_m of the axis correctors X, L^+ the dense pseudo-inverse;
    # axis correctors off by a mean-zero D (still within tol = 1e-3) leave
    # the entries factor * D^T L D too high, and the bound is its largest
    # diagonal entry, r^T L^+ r with r = L D
    g = random_square_lattice(8, np.random.default_rng(8))
    op = g.operator
    exact = homogenized_tensor(g, tol=1e-3)
    assert op.route == "band" and all(f.iterations == 1 for f in exact.correctors)
    X, inverse = op.axis_correctors, pseudo_inverse(op.L)
    rhs = op.B.sum(axis=0) / g.n_cell - op.B

    def errors(X):
        R = op.L @ X - rhs
        return np.einsum("im,im->m", R, inverse @ R)

    assert op.axis_errors == pytest.approx(errors(X), rel=1e-6)
    assert exact.error_bound == 2.0 / g.T ** 2 * op.axis_errors.max()
    assert 0.0 < exact.error_bound <= 1e-25
    D = 1e-6 * np.random.default_rng(1).standard_normal((g.n_cell, 2))
    D -= D.mean(axis=0)
    op.__dict__["_axis_solution"] = (X + D, errors(X + D))
    t = homogenized_tensor(g, tol=1e-3)
    assert all(f.iterations == 1 for f in t.correctors)
    iteration = 2.0 / g.T ** 2 * (D.T @ (op.L @ D))
    assert t.error_bound == pytest.approx(iteration.diagonal().max(), rel=1e-6)
    assert np.abs(t.entries - exact.entries - iteration).max() <= 1e-6 * t.error_bound + 1e-15


def test_fft_route_corrector_keeps_the_residual_stop(rng):
    # corrector() is a field API: it stops on the residual, not on the energy
    g = random_square_lattice(64, rng)
    op = g.operator
    for z in (np.array([1.0, 0.0]), np.array([0.3, -1.2])):
        b = op.B @ z
        field = corrector(g, z)
        ref = solve_corrector(op.L, b, 1e-10, precondition=op.preconditioner)
        assert np.array_equal(field.values, ref.values)
        assert (field.iterations, field.residual) == (ref.iterations, ref.residual)
        assert field.residual <= 1e-10 * np.linalg.norm(b - b.mean())


def _certified_cells():
    rng = np.random.default_rng(35)
    yield from builtin_examples().items()
    for T in (8, 32, 64):
        yield f"R({T})", random_square_lattice(T, rng)
    for T in (16, 32):
        yield f"KD({T},100)", random_square_lattice(T, rng, contrast=100)
    for P in (81, 512):
        yield f"S({P})", random_strip(P, rng)


def test_error_bound_certifies_every_route():
    # the bound is never None: on every cell, on the route it takes, it
    # holds the entries against a tol 1e-14 reference, up to the rounding
    # of the tensors' sums (conftest.check_certificate), and the band
    # route's is the exact iteration error, far below one rounding
    routes = set()
    for name, g in _certified_cells():
        t = homogenized_tensor(g)
        routes.add(g.operator.route)
        A_ref, _ = reference_tensor(g)
        rounding = EPS * 2.0 / g.T ** g.d * g.operator.C.diagonal().max()
        assert t.error_bound is not None and 0.0 <= t.error_bound, name
        assert (np.abs(t.entries - A_ref).max()
                <= t.error_bound + 2.0 * np.sqrt(g.n_cell) * rounding), name
        if g.operator.route == "band":
            assert t.error_bound <= 1e-9 * rounding, name
    assert routes == {"band", "fft"}


# hex of the doubled tensor and of f_hom (single, z = linspace(1, -0.5, d))
# of the former dense route, before the energy stop; these cells take the
# band route, which keeps them
DENSE_ROUTE_BITS = {
    "ex1": ([["0x1.0000000000000p+2"]], "0x1.2000000000000p+0"),
    "ex2": ([["0x1.0000000000000p+2"]], "0x1.2000000000000p+0"),
    "ex3": ([["0x1.0000000000000p+2"]], "0x1.2000000000000p+0"),
    "ex4": ([["0x1.4000000000000p+2"]], "0x1.6800000000000p+0"),
    "ex5": ([["0x1.5555555555555p+1"]], "0x1.8000000000000p-1"),
    "ex6": ([["0x1.0000000000000p+2"]], "0x1.2000000000000p+0"),
    "R(8)": ([["0x1.28e3b4439bb8ep+1", "-0x1.afff292b0e125p-10"],
              ["-0x1.afff292b0e125p-10", "0x1.1304c7e2cecaep+1"]], "0x1.6ddae62174cd6p+0"),
    "L2x4": ([["0x1.aaaaaaaaaaaadp+2", "0x1.5555555555554p-1"],
              ["0x1.5555555555554p-1", "0x1.2aaaaaaaaaaaap+2"]], "0x1.caaaaaaaaaaadp+1"),
}


def test_dense_route_values_are_unchanged():
    graphs = dict(builtin_examples(), **{
        "R(8)": random_square_lattice(8, np.random.default_rng(8)),
        "L2x4": normalize_period(layered_square_lattice(), 4)})
    for name, g in graphs.items():
        t = homogenized_tensor(g)
        assert g.operator.route == "band", name
        z = np.linspace(1.0, -0.5, g.d) if g.d > 1 else np.array([0.75])
        entries, value = DENSE_ROUTE_BITS[name]
        assert [[v.hex() for v in row] for row in t.entries.tolist()] == entries, name
        assert f_hom(g, z, convention="single").hex() == value, name
        assert t.error_bound is not None and 0.0 <= t.error_bound <= 1e-25, name


def test_zero_B_tensor_is_exact_without_an_inverse(monkeypatch):
    # B = 0 gives exact zeros, a zero bound and no factor on the band route
    def no_factor(*args):
        raise AssertionError("B = 0 factored the band")

    monkeypatch.setattr(solve._Band, "factor", no_factor)
    g = layered_square_lattice()
    t = homogenized_tensor(g)
    assert g.operator.route == "band" and t.error_bound == 0.0
    assert all(f.iterations == 0 and not f.values.any() for f in t.correctors)
    assert not g.operator.axis_correctors.any()


def test_dense_route_f_hom_reads_what_it_did():
    # f_hom per call: B z, the product X z, one product with L and z^T C z;
    # the route is read through X, and the tensor's error bound is never
    # formed per call
    class Recording:
        def __init__(self, op):
            self.op, self.names = op, []

        def __getattr__(self, name):
            self.names.append(name)
            return getattr(self.op, name)

    g = random_square_lattice(8, np.random.default_rng(8))
    homogenized_tensor(g)
    f_hom(g, [1.0, 2.0])
    recording = Recording(g.operator)
    g.__dict__["operator"] = recording
    f_hom(g, [0.5, -1.0])
    assert recording.names == ["B", "axis_correctors", "L", "C"]


def test_small_cells_solve_in_one_step(rng):
    # fresh fixtures: the session's copies may have built a preconditioner
    graphs = list(builtin_examples().values())
    graphs += [random_square_lattice(T, rng) for T in (4, 8, 12)]
    graphs.append(normalize_period(layered_square_lattice(), 8))
    for g in graphs:
        op = g.operator
        assert op.route == "band"
        for e in np.eye(g.d):
            field, b = corrector(g, e), op.B @ e
            assert field.iterations <= 1
            assert (np.linalg.norm(op.L @ field.values + b)
                    <= 1e-12 * max(np.linalg.norm(b), 1.0))
        A, ref = homogenized_tensor(g).entries, plain_cg_tensor(g)
        assert np.abs(A - ref).max() <= 1e-12 * np.abs(ref).max(), g
        assert "preconditioner" not in vars(op)


def test_disconnected_quotient_solves_in_one_step(rng):
    # two uncoupled layers: L has a two-dimensional kernel, one constant per layer
    nodes = [(x, y, r) for x in range(3) for y in range(3) for r in range(2)]
    edges = [((x, y, r), ((x + 1) % 3, y, r), (int(x == 2), 0), float(rng.uniform(0.5, 2.0)))
             for x, y, r in nodes]
    edges += [((x, y, r), (x, (y + 1) % 3, r), (0, int(y == 2)), float(rng.uniform(0.5, 2.0)))
              for x, y, r in nodes]
    g = graph_from_edges(2, 1, 3, nodes, edges)
    op = g.operator
    assert connected_components(op.L, directed=False)[0] == 2
    for e in np.eye(2):
        field, plain = corrector(g, e), solve_corrector(op.L, op.B @ e)
        assert field.iterations <= 1 < plain.iterations
        assert np.abs(field.values - plain.values).max() <= 1e-9 * np.abs(plain.values).max()
    A, ref = homogenized_tensor(g).entries, plain_cg_tensor(g)
    assert np.abs(A - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("make", [lambda: random_strip(81, np.random.default_rng(81)),
                                  lambda: random_square_lattice(15, np.random.default_rng(15)),
                                  lambda: random_strip(128, np.random.default_rng(128))],
                         ids=["S(81)", "R(15)", "S(128)"])
def test_cells_past_the_old_dense_ceiling_take_the_band(make):
    # n = 162, 225 and 256: the band is plainly cheaper, so neither a base
    # cell nor a preconditioner is built, and X is solved once, the
    # correctors agreeing with plain CG
    g = make()
    op = g.operator
    for e in np.eye(g.d):
        ours, plain = corrector(g, e), solve_corrector(op.L, op.B @ e)
        assert ours.iterations == 1 < plain.iterations
        assert np.abs(ours.values - plain.values).max() <= 1e-9 * np.abs(plain.values).max()
    A, ref = homogenized_tensor(g).entries, plain_cg_tensor(g)
    assert np.abs(A - ref).max() <= 1e-12 * np.abs(ref).max()
    assert op.route == "band"
    assert "base_cell" not in vars(op) and "preconditioner" not in vars(op)


@pytest.mark.parametrize("make", [lambda: random_strip(81, np.random.default_rng(81)),
                                  lambda: random_square_lattice(15, np.random.default_rng(15)),
                                  lambda: random_strip(128, np.random.default_rng(128))],
                         ids=["S(81)", "R(15)", "S(128)"])
def test_axis_correctors_built_past_the_old_dense_ceiling(make):
    # the same cells now build X, (n, d) and mean-zero, and no n x n array:
    # the tensor and f_hom read X and its certificate, with no dense inverse
    g = make()
    A = homogenized_tensor(g)
    f_hom(g, np.ones(g.d))
    op = g.operator
    assert "_axis_solution" in vars(op)
    X = op.axis_correctors
    assert X.shape == (g.n_cell, g.d)
    assert np.abs(X.sum(axis=0)).max() <= 1e-12 * max(np.abs(X).max(), 1.0)
    assert A.error_bound is not None and A.error_bound >= 0
    assert not any(isinstance(v, np.ndarray) and v.shape == (g.n_cell, g.n_cell)
                   for v in vars(op).values())


def test_projection_by_sum_equals_mean():
    # solve_corrector projects with v - v.sum() / n, numpy's mean bit for bit
    # (every n up to 16 384 agreed when it was written; all n up to 1024 and a
    # sample above stay checked)
    rng = np.random.default_rng(5)
    for n in [*range(2, 1025), *range(1025, 16385, 127)]:
        v = rng.standard_normal(n)
        assert np.array_equal(v - v.sum() / n, v - v.mean()), n


def test_preconditioner_result_aliasing_the_residual_is_not_written():
    # a preconditioner may return r, a view of r or a read-only array: the
    # residual stays as the loop left it (checked at the next product with
    # L, before the loop next writes r), and the solve is the one a copying
    # preconditioner gives, bit for bit
    g = random_square_lattice(8, np.random.default_rng(8))
    L, b = g.operator.L, g.operator.B @ np.array([1.0, -0.5])
    handed = []

    class CheckedL:
        def dot(self, p):
            assert all(np.array_equal(r, kept) for r, kept in handed)
            handed.clear()
            return L.dot(p)

    def read_only(r):
        z = r.copy()
        z.flags.writeable = False
        return z

    copying = solve_corrector(L, b, precondition=lambda r: r.copy())
    for precondition in (lambda r: r, lambda r: r[:], read_only):
        def recording(r):
            handed.append((r, r.copy()))
            return precondition(r)

        field = solve_corrector(CheckedL(), b, precondition=recording)
        assert np.array_equal(field.values, copying.values)
        assert (field.iterations, field.residual) == (copying.iterations, copying.residual)
    assert copying.iterations > 1


def test_corrector_logs_its_solver(examples, rng, caplog):
    with caplog.at_level(logging.DEBUG, logger="lattice_homog"):
        corrector(examples["ex4"], [1.0])
        field = corrector(on_fft_route(random_square_lattice(16, rng)), [1.0, 0.0])
    small, large = [r.getMessage() for r in caplog.records]
    assert small.startswith("corrector: solver band (width 1), n 2, iterations 1, residual ")
    assert large == (f"corrector: solver fft-pcg (t=1, n0=1), n 256, iterations "
                     f"{field.iterations}, residual {field.residual:.3e}")


# ---------------------------------------------------------------------------
# the band route: one product with the cached axis correctors


def _uncoupled_layers(rng):
    """A 3 x 3 cell of two uncoupled layers: L has a two-dimensional kernel."""
    nodes = [(x, y, r) for x in range(3) for y in range(3) for r in range(2)]
    edges = [((x, y, r), ((x + 1) % 3, y, r), (int(x == 2), 0), float(rng.uniform(0.5, 2.0)))
             for x, y, r in nodes]
    edges += [((x, y, r), (x, (y + 1) % 3, r), (0, int(y == 2)), float(rng.uniform(0.5, 2.0)))
              for x, y, r in nodes]
    return graph_from_edges(2, 1, 3, nodes, edges)


def _small_cells():
    rng = np.random.default_rng(21)
    graphs = list(builtin_examples().values())
    graphs += [random_square_lattice(T, rng) for T in (4, 8, 12)]
    graphs += [normalize_period(layered_square_lattice(), 8), _uncoupled_layers(rng)]
    return graphs


def test_small_cell_corrector_runs_no_cg_loop(monkeypatch):
    def no_cg(*args, **kwargs):
        raise AssertionError("the band route ran the CG loop")

    rng = np.random.default_rng(7)
    for g in _small_cells():
        op = g.operator
        assert op.route == "band"
        inverse = pseudo_inverse(op.L)
        for z in [*np.eye(g.d), rng.standard_normal(g.d)]:
            b = op.B @ z
            ref = inverse @ (b.mean() - b)
            with monkeypatch.context() as patch:
                patch.setattr(cell_module, "_preconditioned_cg", no_cg)
                field = corrector(g, z)
                energy = f_hom(g, z, convention="single")
            assert np.abs(field.values - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1.0)
            assert np.array_equal(field.direction, z)
            # f_hom is cell_energy of the same corrector, bit for bit
            assert energy == cell_energy(g, z, field, convention="single")
            if np.linalg.norm(b) == 0:
                assert np.array_equal(field.values, np.zeros(g.n_cell))
                assert (field.iterations, field.residual) == (0, 0.0)
            else:
                assert field.iterations == 1
                # the residual of L chi = project(-b), from the check's own product
                assert field.residual == np.linalg.norm(op.L @ field.values - (b.mean() - b))
                assert field.residual <= 1e-10 * np.linalg.norm(b)


def test_axis_correctors_built_once_and_read_only(monkeypatch):
    built, build = [], graph_module.band_correctors

    def counting(band, L, B):
        built.append(L)
        return build(band, L, B)

    monkeypatch.setattr(graph_module, "band_correctors", counting)
    g = random_square_lattice(8, np.random.default_rng(8))
    op = g.operator
    assert "_axis_solution" not in vars(op)
    A = homogenized_tensor(g)
    f_hom(g, [1.0, -0.5])
    corrector(g, [0.25, 2.0])
    X = op.axis_correctors
    assert built == [op.L] and X.shape == (g.n_cell, g.d)
    with pytest.raises(ValueError):
        X[0, 0] = 0.0
    # column m is the corrector of e_m, mean zero
    assert np.array_equal(X, np.column_stack([f.values for f in A.correctors]))
    assert np.abs(X.sum(axis=0)).max() <= 1e-12


def test_route_reads_the_band_width_alone():
    # the route reads the width of the band in fold order, the band's own
    # width, and a cell on the FFT route fills no band and solves no axis
    # corrector or error
    routes = set()
    for name, g in ROUTE_CELLS.items():
        op = PeriodicOperator(g)
        routes.add(op.route)
        assert "band" not in op.__dict__, name
        if op.route == "fft":
            assert op.axis_correctors is None and op.axis_errors is None, name
            assert "band" not in op.__dict__ and "_axis_solution" not in op.__dict__, name
        assert op.band_width == op.band.width, name
    assert routes == {"band", "fft"}


def test_a_cell_with_no_sub_period_keeps_the_band_cap(monkeypatch):
    # a cell that re-tiles no smaller one, with its band over the cap, fills
    # no band: the FFT route runs CG with no preconditioner, in memory that
    # grows only as n, and certifies nothing but a zero right-hand side
    band = homogenized_tensor(random_strip(128, np.random.default_rng(128)))
    g = random_strip(128, np.random.default_rng(128))
    op = g.operator
    monkeypatch.setattr(solve, "_BAND_MAX_BYTES", (op.band_width + 1) * g.n_cell * 8 - 1)
    assert op.route == "fft" and op.base_cell is None and op.preconditioner is None
    t = homogenized_tensor(g)
    assert op.axis_correctors is None and op.axis_errors is None
    assert "band" not in op.__dict__
    assert np.abs(t.entries - band.entries).max() <= 1e-12 * np.abs(band.entries).max()
    assert t.error_bound == np.inf
    assert f_hom(g, [1.0]) == pytest.approx(band.entries[0, 0], rel=1e-12)


def test_band_corrector_raises_on_a_missed_tolerance(examples):
    # no product meets tol = 1e-300: X z misses, the solve for b itself on
    # the band misses too, and NoConvergence carries the residual
    # ||L chi - project(-b)|| of that chi; no CG loop runs
    g = examples["ex5"]
    op = g.operator
    b = op.B @ np.ones(1)
    with pytest.raises(NoConvergence, match="band corrector missed its residual check") as err:
        corrector(g, [1.0], tol=1e-300)
    rhs = b.mean() - b
    chi = solve.quotient_solve(op.band, op.L, rhs[:, None])[0][:, 0]
    assert err.value.residual == np.linalg.norm(op.L @ chi - rhs) > 0
    assert f"residual {err.value.residual:.3e}" in str(err.value)


# a re-tiled cell whose B z cancels at z = (1, 1) to a rounding residue at
# one node, 4.4e-16 against columns of 1.92: X z misses the residual check
# on it
CANCELLING_CELL = """d 2
k 1
T 2
node 0 0 0
node 0 0 1
node 0 1 0
node 0 1 1
node 1 0 0
node 1 0 1
node 1 1 0
node 1 1 1
edge (0 0 0) (0 1 0)+0-1 3.0
edge (0 0 0) (0 1 0) 3.0
edge (0 0 0) (1 0 0)-1+0 1.0
edge (0 0 0) (1 0 0) 1.0
edge (0 0 0) (1 1 1)+0-1 1.9248784984004677
edge (0 0 1) (1 1 0)-1+0 1.9248784984004677
edge (0 1 0) (1 0 1) 1.9248784984004677
edge (0 1 0) (1 1 0)-1+0 1.0
edge (0 1 0) (1 1 0) 1.0
edge (0 1 1) (1 0 0)-1+1 1.9248784984004677
edge (1 0 0) (1 1 0)+0-1 3.0
edge (1 0 0) (1 1 0) 3.0
"""


def test_band_corrector_solves_a_cancelling_right_hand_side():
    # B z is a rounding residue that X z cannot meet: the corrector is
    # solved for B z itself on the band, meets the check, and f_hom is the
    # tensor's quadratic form
    g = parse(CANCELLING_CELL)
    op = g.operator
    z = np.ones(2)
    b = op.B @ z
    rhs = b.mean() - b
    cap = 1e-10 * np.linalg.norm(rhs)
    assert op.route == "band" and 0 < np.abs(b).max() <= 1e-15
    assert np.linalg.norm(op.L @ (op.axis_correctors @ z) - rhs) > cap
    field = corrector(g, z)
    assert field.iterations == 1
    assert field.residual == np.linalg.norm(op.L @ field.values - rhs) <= cap
    scale = 2.0 * (z @ np.abs(op.C) @ z) / g.T ** 2
    assert abs(f_hom(g, z) - homogenized_tensor(g).quadratic_form(z)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# the two routes against each other, the oracle and an exact duality


def _route_cells():
    rng = np.random.default_rng(1213)
    yield "R(16)", random_square_lattice(16, rng)
    yield "R(64)", random_square_lattice(64, rng)
    yield "KD(16,100)", random_square_lattice(16, rng, contrast=100)
    yield "KD(32,100)", random_square_lattice(32, rng, contrast=100)
    yield "S(8)x16", normalize_period(random_strip(8, rng), 128)     # n0^2 = n
    yield "L2x16", normalize_period(layered_square_lattice(), 16)
    yield "cube x4", normalize_period(cube_lattice(rng), 8)


ROUTE_CELLS = dict(_route_cells())


@pytest.mark.parametrize("g", ROUTE_CELLS.values(), ids=ROUTE_CELLS.keys())
def test_band_tensor_matches_fft_pcg(g):
    # the same cell on both routes, FFT-PCG at tol 1e-13
    op = g.operator
    op.__dict__["route"] = "band"
    band = homogenized_tensor(g).entries
    fft = homogenized_tensor(on_fft_route(g), tol=1e-13).entries
    assert np.abs(band - fft).max() <= 1e-12 * np.abs(fft).max()


def test_band_tensor_matches_the_oracle(examples):
    rng = np.random.default_rng(64)
    graphs = dict(examples, **{"R(8)": random_square_lattice(8, rng),
                               "KD(8,100)": random_square_lattice(8, rng, contrast=100),
                               "S(32)": random_strip(32, rng), "cube": cube_lattice(rng),
                               "L2x4": normalize_period(layered_square_lattice(), 4)})
    for name, g in graphs.items():
        assert g.n_cell <= 64 and g.operator.route == "band", name
        A = homogenized_tensor(g).entries
        for z in [*np.eye(g.d), np.ones(g.d)]:
            assert abs(z @ A @ z - brute_force_cell_oracle(g, z)) <= 1e-12 * np.abs(A).max(), name


def _rotated_dual(wx, wy):
    """The weights of the dual cell: the dual bond crossing each bond carries
    its inverse weight, the dual x-bond at (x, y) crossing the y-bond at
    (x + 1, y) and the dual y-bond at (x, y) the x-bond at (x, y + 1)."""
    return np.roll(1.0 / wy, -1, axis=0), np.roll(1.0 / wx, -1, axis=1)


@pytest.mark.parametrize("contrast", [2, 100])
@pytest.mark.parametrize("T", [16, 32, 64])
def test_duality_of_the_square_cell(T, contrast):
    # a planar cell and its dual: A(w) R A(w*) R^T = I exactly (single
    # count, R the rotation by 90 degrees; Keller, J. Math. Phys. 5, 1964),
    # on cells far above the oracle's size cap and on both routes
    rng = np.random.default_rng(T + contrast)
    wx, wy = np.exp(rng.uniform(-np.log(contrast), np.log(contrast), (2, T, T)))
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    cells = [square_cell(wx, wy), square_cell(*_rotated_dual(wx, wy))]
    A, A_dual = (homogenized_tensor(g, convention="single").entries for g in cells)
    assert np.abs(A @ R @ A_dual @ R.T - np.eye(2)).max() <= 1e-12
    routes = {g.operator.route for g in cells}
    assert routes == ({"fft"} if T == 64 and contrast == 2 else {"band"})
