import numpy as np
import pytest

from lattice_homog import (
    InvalidDirection,
    NoConvergence,
    TooLarge,
    assemble_quotient_system,
    brute_force_cell_oracle,
    cell_energy,
    corrector,
    f_hom,
    graph_from_edges,
    homogenized_tensor,
    normalize_period,
    solve_corrector,
)
from lattice_homog.cell import convention_factor
from lattice_homog.graph import PeriodicOperator

from conftest import (
    layered_square_lattice,
    random_square_lattice,
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
    t = homogenized_tensor(normalize_period(layered_square_lattice(), 8))
    expect = np.array([[20.0 / 3.0, 2.0 / 3.0], [2.0 / 3.0, 14.0 / 3.0]])
    assert np.all(np.abs(t.entries - expect) <= 1e-9 * np.abs(expect))
    assert t.entries[0, 1] == t.entries[1, 0]


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
