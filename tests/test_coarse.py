import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from lattice_homog import (CellOutOfWindow, DisconnectedGraph, graph_from_edges,
                           instantiate_window, normalize_period)
from lattice_homog import BoundaryDatum, DirichletProblem, cli, coarse, solve_dirichlet
from lattice_homog.bvp import l2_error_against
from lattice_homog.graph import laplacian, position_box
from lattice_homog.lgf import builtin_example_text
from lattice_homog.coarse import (
    LatticeFunction,
    check_poincare,
    check_poincare_wirtinger,
    check_two_connectedness,
    coarse_field,
    coarse_mean,
    compute_path_constants,
    hypothesis_norms,
)

import coarse_reference
import harness_reference
from conftest import (chain_graph, cube_lattice, layered_square_lattice, long_offset_chain,
                      random_square_lattice, random_strip, skew_lattice, square_lattice)


def _window_function(graph, cells, values=None, scale=1.0):
    fg = instantiate_window(graph, [(0, cells)] * graph.d)
    if values is None:
        values = np.zeros(len(fg.positions))
    return fg, LatticeFunction(graph, fg.positions, fg.node_ids, values, scale)


# ---------------------------------------------------------------------------
# coarse means


def test_coarse_mean_constant(examples):
    g = examples["ex1"]
    fg, u = _window_function(g, 4)
    u.values[:] = 3.25
    for cell in u.full_cells():
        assert coarse_mean(u, cell) == 3.25


def test_coarse_mean_chain_consecutive_integers():
    g = graph_from_edges(1, 0, 3, [(0,), (1,), (2,)],
                         [((0,), (1,), (0,), 1.0), ((1,), (2,), (0,), 1.0),
                          ((2,), (0,), (1,), 1.0)])
    fg, u = _window_function(g, 3)
    u.values[:] = fg.positions[:, 0]
    for l in range(3):
        assert coarse_mean(u, (l,)) == l * 3 + 1.0  # lT + (T-1)/2


def test_coarse_mean_affine_closed_form(examples):
    g = examples["ex1"]
    fg, u = _window_function(g, 4)
    z = 2.0
    u.values[:] = z * fg.positions[:, 0]
    dbar = np.mean([n.dpos[0] for n in g.nodes])
    for l in range(4):
        assert coarse_mean(u, (l,)) == pytest.approx(z * (l * g.T + dbar), abs=1e-12)


def test_coarse_mean_linearity(examples, rng):
    g = examples["ex6"]
    fg, _ = _window_function(g, 3)
    a = rng.standard_normal(len(fg.positions))
    b = rng.standard_normal(len(fg.positions))
    ua = LatticeFunction(g, fg.positions, fg.node_ids, a, 1.0)
    ub = LatticeFunction(g, fg.positions, fg.node_ids, b, 1.0)
    uc = LatticeFunction(g, fg.positions, fg.node_ids, 2.0 * a - 3.0 * b, 1.0)
    for cell in ua.full_cells():
        got = coarse_mean(uc, cell)
        want = 2.0 * coarse_mean(ua, cell) - 3.0 * coarse_mean(ub, cell)
        assert got == pytest.approx(want, abs=1e-12)


def test_coarse_mean_out_of_window(examples):
    _, u = _window_function(examples["ex1"], 3)
    with pytest.raises(CellOutOfWindow):
        coarse_mean(u, (9,))


def test_coarse_field_excludes_partial_cells(chain):
    fg, u = _window_function(chain, 8, scale=0.125)
    u.values[:] = 1.0
    field = coarse_field(u, [(0.0, 1.0)])
    # cell [0, 1/8) touches the open domain's lower edge and is excluded
    assert set(field.means) == {(l,) for l in range(1, 8)}
    assert all(v == 1.0 for v in field.means.values())


def test_coarse_field_small_domain_is_empty(chain):
    fg, u = _window_function(chain, 4, scale=1.0)
    field = coarse_field(u, [(0.2, 0.8)])
    assert field.means == {}


def assert_matches_reference(u, domain):
    """Full cells, means, L2 error and hypothesis norms of u, bit for bit
    those of the per-cell reference route (tests/coarse_reference.py)."""
    full = u.full_cells()
    assert full == coarse_reference.full_cells(u)
    groups = coarse_reference.cell_map(u)
    assert [coarse_mean(u, c) for c in full] == [coarse_reference.coarse_mean(u, c, groups)
                                                 for c in full]
    means = list(coarse_field(u, domain).means.items())
    assert repr(means) == repr(list(coarse_reference.coarse_field(u, domain).items()))
    minimizer = lambda x: x[0] * x[0] - x[-1]
    assert repr(l2_error_against(u, domain, minimizer)) == repr(
        coarse_reference.l2_error_against(u, domain, minimizer))
    assert repr(hypothesis_norms(u, domain)) == repr(coarse_reference.hypothesis_norms(u, domain))
    return means


QUADRATIC = BoundaryDatum(lambda x: x[0] * x[0] - x[-1], name="x*x - y")


@pytest.mark.parametrize("name,eps", [("L2", Fraction(1, 4)), ("L2", Fraction(1, 8)),
                                      ("L2", Fraction(1, 16)), ("L2", Fraction(1, 32)),
                                      ("L2 x2", Fraction(1, 16)), ("ex5", Fraction(1, 32)),
                                      ("R4", Fraction(1, 16))])
def test_cell_groups_match_reference(examples, name, eps):
    # R4 has 16 nodes a cell, so its means take numpy's pairwise-sum path
    g = {"L2": layered_square_lattice,
         "L2 x2": lambda: normalize_period(layered_square_lattice(), 2),
         "ex5": lambda: examples["ex5"],
         "R4": lambda: random_square_lattice(4, np.random.default_rng(20240811))}[name]()
    u, _ = solve_dirichlet(DirichletProblem(g, ((0, 1),) * g.d, eps, QUADRATIC))
    means = assert_matches_reference(u, [(0.0, 1.0)] * g.d)
    assert len(means) == (1 / (eps * g.T) - 1) ** g.d


def test_cell_groups_match_reference_shuffled(rng):
    # vertices in no particular order, and cell (0, 0) short of a vertex
    g = normalize_period(layered_square_lattice(), 2)
    fg = instantiate_window(g, [(-1, 3)] * 2)
    in_origin = np.flatnonzero((fg.positions // g.T == 0).all(axis=1))
    keep = rng.permutation(np.delete(np.arange(len(fg.positions)), in_origin[3]))
    u = LatticeFunction(g, fg.positions[keep], fg.node_ids[keep],
                        rng.standard_normal(len(keep)), 0.25)
    assert len(u.full_cells()) == 15
    # cells -1..2 by 0..2 lie inside, but for (0, 0); cell 2's upper face is on b = 1.5
    assert len(assert_matches_reference(u, [(-1.0, 2.0), (-0.5, 1.5)])) == 11
    # a domain smaller than one cell: no mean, no error, no pair energy
    assert assert_matches_reference(u, [(0.1, 0.4), (0.1, 0.4)]) == []
    assert hypothesis_norms(u, [(0.1, 0.4), (0.1, 0.4)])[1] == 0.0


def test_cell_out_of_window_messages(rng):
    g = normalize_period(layered_square_lattice(), 2)
    fg = instantiate_window(g, [(0, 2)] * 2)
    u = LatticeFunction(g, fg.positions[1:], fg.node_ids[1:],
                        rng.standard_normal(len(fg.positions) - 1), 1.0)
    for cell, message in [((5, 0), "cell (5, 0) not sampled"),
                          ((0,), "cell (0,) not sampled"),
                          ((0, 0, 0), "cell (0, 0, 0) not sampled"),
                          ((0.5, 0), "cell (0.5, 0) not sampled"),
                          ((0, 0), "cell (0, 0) only partially sampled")]:
        for mean in (coarse_mean, coarse_reference.coarse_mean):
            with pytest.raises(CellOutOfWindow, match=re.escape(message)):
                mean(u, cell)
    assert coarse_mean(u, (1, 1)) == coarse_reference.coarse_mean(u, (1, 1))
    assert u.cell_indices((0, 0)).tolist() == coarse_reference.cell_map(u)[(0, 0)]


# ---------------------------------------------------------------------------
# path constants


def test_path_constants_chain(chain):
    pc = compute_path_constants(chain)
    assert pc.max_translation_path == 1
    assert pc.C_two == 1.0
    assert pc.M == 1


def test_path_constants_ex1_detours(examples):
    pc = compute_path_constants(examples["ex1"])
    # the middle-row node must detour around the missing neighbours, and the
    # detours share rail edges, pushing the constant above one
    assert pc.max_translation_path == 4
    assert pc.translation_multiplicity > 1
    assert pc.C_two > 1
    assert pc.M == examples["ex1"].T


def test_path_constants_ex6_finite(examples):
    pc = compute_path_constants(examples["ex6"])
    assert pc.max_translation_path >= 1
    assert math.isfinite(pc.C_two) and math.isfinite(pc.C_pw)


def test_path_constants_weighted():
    g = graph_from_edges(1, 0, 1, [(0,)], [((0,), (0,), (1,), 0.25)])
    pc = compute_path_constants(g)
    assert pc.min_weight == 0.25
    assert pc.C_pw == pc.max_pair_path * pc.pair_multiplicity / g.n_cell / 0.25


def test_path_constants_dominate_sharp_constants(examples):
    # the computed constants must make the inequalities hold for *every*
    # field, which is exactly "constant >= the sharp generalized eigenvalue"
    for name, g in examples.items():
        pc = compute_path_constants(g)
        T, d, M = g.T, g.d, pc.M
        pos, _, ends, weights = position_box(g, [-(M - 1)] * d, [2 * T - 1 + (M - 1)] * d)
        n = len(pos)

        def vertices_in(box):
            lo, hi = np.array(box).T
            return np.all((pos >= lo) & (pos <= hi), axis=1)

        def edge_subset(box):
            keep = vertices_in(box)[ends].all(axis=1)
            return zip(ends[keep, 0], ends[keep, 1], weights[keep])

        pbox = [(-(M - 1), 2 * T - 1 + (M - 1))] + \
               [(-(M - 1), T - 1 + (M - 1))] * (d - 1)
        B = np.zeros((n, n))
        for a, b, _ in edge_subset(pbox):
            B[a, a] += 2
            B[b, b] += 2
            B[a, b] -= 2
            B[b, a] -= 2
        cell0 = vertices_in([(0, T - 1)] * d)
        cell1 = vertices_in([(T, 2 * T - 1)] + [(0, T - 1)] * (d - 1))
        v = (cell0.astype(float) - cell1.astype(float)) / g.n_cell
        sharp_two = float(v @ np.linalg.pinv(B) @ v)
        assert pc.C_two >= sharp_two - 1e-9, (name, pc.C_two, sharp_two)

        cbox = [(-(M - 1), T - 1 + (M - 1))] * d
        Bw = np.zeros((n, n))
        for a, b, w in edge_subset(cbox):
            Bw[a, a] += 2 * w
            Bw[b, b] += 2 * w
            Bw[a, b] -= 2 * w
            Bw[b, a] -= 2 * w
        mask = vertices_in([(0, T - 1)] * d).astype(float)
        P = np.diag(mask) - np.outer(mask, mask) / g.n_cell
        evals, evecs = np.linalg.eigh(Bw)
        keep = evals > 1e-9
        W = evecs[:, keep] / np.sqrt(evals[keep])
        sharp_pw = float(np.linalg.eigvalsh(W.T @ P @ W).max())
        assert pc.C_pw >= sharp_pw - 1e-9, (name, pc.C_pw, sharp_pw)


def test_path_constants_computed_once_per_graph(monkeypatch, tmp_path):
    # one `inequalities` run: two harnesses, one computation
    computed = []
    compute = coarse.compute_path_constants

    def counting(graph):
        computed.append(graph)
        return compute(graph)

    monkeypatch.setattr(coarse, "compute_path_constants", counting)
    path = tmp_path / "ex5.lgf"
    path.write_text(builtin_example_text("ex5"), encoding="utf-8")
    assert cli.run(["inequalities", str(path), "--trials", "8", "--widths", "8"]) == 0
    assert len(computed) == 1
    g = layered_square_lattice()
    assert "path_constants" not in vars(g)
    consts = g.path_constants
    check_two_connectedness(g, trials=4)
    check_poincare_wirtinger(g, trials=4)
    assert len(computed) == 2 and g.path_constants is consts
    assert consts == compute(g)


def test_path_constants_disconnected():
    g = graph_from_edges(1, 1, 1, [(0, 0), (0, 1)], [((0, 0), (0, 0), (1,), 1.0),
                                                     ((0, 1), (0, 1), (1,), 1.0)])
    with pytest.raises(DisconnectedGraph):
        compute_path_constants(g)


# ---------------------------------------------------------------------------
# inequality harnesses


def test_two_connectedness_fixtures(examples):
    for name, g in examples.items():
        rep = check_two_connectedness(g, trials=200, seed=7)
        assert rep.holds, (name, rep.worst_ratio)
        assert rep.trials == 0      # no random field is scored


def test_poincare_wirtinger_fixtures(examples):
    for name, g in examples.items():
        rep = check_poincare_wirtinger(g, trials=200, seed=7)
        assert rep.holds, (name, rep.worst_ratio)


def test_harness_deterministic(examples):
    # the reports draw nothing, so neither the seed nor the trial count moves them
    g = examples["ex3"]
    a = check_two_connectedness(g, trials=60, seed=11)
    b = check_two_connectedness(g, trials=60, seed=11)
    assert a.worst_ratio == b.worst_ratio and a.witness == b.witness
    assert check_two_connectedness(g, trials=3, seed=0).to_dict() == a.to_dict()


def test_harness_witness_is_the_earliest_tied_region(examples):
    # two-connectedness counts every edge alike, so the two axes of a square
    # cell tie in exact arithmetic; on this R(3) the second axis rounds 11 ulp
    # higher, and the witness is still the first axis
    g = random_square_lattice(3, np.random.default_rng(1))
    two = check_two_connectedness(g)
    assert two.worst_ratio.hex() == "0x1.8705bf37d4b02p-3"
    assert two.witness == "extremal, pair (0, 0)->(1, 0)"
    assert check_poincare_wirtinger(examples["ex5"]).witness == "extremal, cell (0,)"
    assert [r.witness for r in check_poincare(examples["ex5"], (32, 64))] == ["extremal"] * 2


@pytest.mark.parametrize("seed", [-1, 1.5, "7", None])
def test_harnesses_reject_bad_seed(examples, seed):
    # check_poincare used to seed width w with seed + w, so seed -1 ran as seed 7
    g = examples["ex1"]
    for harness in (check_two_connectedness, check_poincare_wirtinger,
                    lambda g, seed: check_poincare(g, [8], seed=seed)):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            harness(g, seed=seed)


def test_harnesses_reject_vacuous_trial_counts(examples):
    # the local harnesses keep their contract of at least one trial;
    # check_poincare takes 0
    g = examples["ex1"]
    for trials in (0, -3):
        for harness in (check_two_connectedness, check_poincare_wirtinger):
            with pytest.raises(ValueError, match="trials must be at least 1"):
                harness(g, trials=trials)
    with pytest.raises(ValueError, match="trials must be at least 0"):
        check_poincare(g, [8], trials=-1)
    [rep] = check_poincare(g, [8], trials=0)
    assert rep.trials == 0 and rep.witness == "extremal"


@pytest.mark.parametrize("trials", [200.0, 1.5, "8", None])
def test_harnesses_reject_non_integer_trial_counts(examples, monkeypatch, trials):
    # range() used to raise a bare TypeError after the harness region was built
    def no_box(*args):
        raise AssertionError("a region was built")

    monkeypatch.setattr(coarse, "position_box", no_box)
    g = examples["ex1"]
    for harness in (check_two_connectedness, check_poincare_wirtinger,
                    lambda g, trials: check_poincare(g, [8], trials=trials)):
        with pytest.raises(ValueError, match="trials must be an integer"):
            harness(g, trials=trials)


@pytest.mark.parametrize("widths,message", [([-2], "width -2 must be at least 1"),
                                            ([8, 0], "width 0 must be at least 1"),
                                            ([2.5], "width 2.5 must be an integer"),
                                            (["8"], "width '8' must be an integer")])
def test_poincare_rejects_bad_widths(examples, monkeypatch, widths, message):
    # numpy's "negative dimensions are not allowed" and a raw TypeError used to
    # leak out; every width is checked before any box is built
    def no_box(*args):
        raise AssertionError("a box was built")

    monkeypatch.setattr(coarse, "position_box", no_box)
    with pytest.raises(ValueError, match=re.escape(message)):
        check_poincare(examples["ex1"], widths)


def test_poincare_narrow_widths_leave_no_admissible_vertex(examples):
    for width in (1, 2, 3):
        with pytest.raises(ValueError, match=f"width {width} leaves no admissible vertex"):
            check_poincare(examples["ex1"], [width])
    [rep] = check_poincare(examples["ex1"], [np.int64(8)])
    assert type(rep.width_cells) is int and rep.width_cells == 8


# the graphs on which both local harnesses are checked against the reference
# routes of tests/harness_reference.py; every harness region has at most 400
# vertices
LOCAL_GRAPHS = {
    "chain": chain_graph,
    "square": square_lattice,
    "square(1,2)": lambda: square_lattice(1.0, 2.0),
    "skew": skew_lattice,
    "layered": layered_square_lattice,
    "L2 x2": lambda: normalize_period(layered_square_lattice(), 2),
    "L2 x4": lambda: normalize_period(layered_square_lattice(), 4),
    "R4": lambda: random_square_lattice(4, np.random.default_rng(20240811)),
    "KD(4,100)": lambda: random_square_lattice(4, np.random.default_rng(20240811),
                                               contrast=100),
    "cube": lambda: cube_lattice(np.random.default_rng(20240811)),
    "S(7)": lambda: random_strip(7, np.random.default_rng(20240811)),
    "long offset chain": long_offset_chain,
}


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4", "ex5", "ex6", *LOCAL_GRAPHS])
def test_exact_ratios_bound_the_references(examples, name):
    # each trial is a field, so its ratio is at most the supremum; the dense
    # route takes the same supremum by another solve
    g = examples[name] if name in examples else LOCAL_GRAPHS[name]()
    exact = {"two_connectedness": check_two_connectedness(g),
             "poincare_wirtinger": check_poincare_wirtinger(g)}
    trial, dense = harness_reference.trial_worst(g), harness_reference.dense_worst(g)
    for harness, rep in exact.items():
        assert rep.holds, (harness, rep.worst_ratio)
        assert trial[harness][0] <= rep.worst_ratio * (1 + 1e-12), harness
        assert rep.worst_ratio == pytest.approx(dense[harness], rel=1e-10, abs=0), harness


def test_two_connectedness_closed_forms(examples):
    expected = {"ex1": Fraction(1, 6), "ex2": Fraction(1, 8), "ex3": Fraction(2, 5),
                "ex4": Fraction(3, 8), "ex5": Fraction(49, 160), "ex6": Fraction(1, 4)}
    for name, value in expected.items():
        ratio = check_two_connectedness(examples[name]).worst_ratio
        assert ratio == pytest.approx(float(value), rel=1e-12, abs=0), name


@pytest.mark.parametrize("name", ["chain", "square", "skew", "long offset chain"])
def test_one_node_cells_have_no_deviation(name):
    # C = 0 and C_pw = 0: the ratio is 0, not 0/0
    g = LOCAL_GRAPHS[name]()
    rep = check_poincare_wirtinger(g)
    assert g.n_cell == 1 and rep.constant_used == 0.0
    assert (rep.worst_ratio, rep.witness, rep.holds) == (0.0, "", True)


def test_harnesses_on_a_chain_whose_witnesses_need_nine_periods():
    # bonds of length 9 and 10: connected, but the witnesses first fit at M = 9
    g = long_offset_chain()
    assert g.path_constants.M == 9 and g.path_constants.C_two == 17.0
    two, pw = check_two_connectedness(g), check_poincare_wirtinger(g)
    assert two.holds and pw.holds
    assert two.trials == pw.trials == 0
    assert two.worst_ratio == pytest.approx(0.5, rel=1e-12, abs=0)
    # in the cell box [-8, 8] no edge reaches the cell's vertex 0, so every
    # other vertex is left unreached by the search from it and drops out
    pos, _, ends, _ = position_box(g, [-8], [8])
    count, labels = connected_components(laplacian(len(pos), ends, np.ones(len(ends))))
    assert count > 1 and np.count_nonzero(labels == labels[pos[:, 0] == 0]) == 1
    assert (pw.worst_ratio, pw.witness) == (0.0, "")


def test_constant_field_gives_zero_ratio(examples):
    # a constant field has no mean gap
    g = examples["ex2"]
    pos, node_ids, _, _ = position_box(g, [-1], [2])
    u = LatticeFunction(g, pos, node_ids, np.full(len(pos), 4.0), 1.0)
    assert coarse_mean(u, (0,)) == coarse_mean(u, (1,)) == 4.0


def test_poincare_constant_grows_quadratically(chain):
    reps = check_poincare(chain, widths=(8, 16, 32, 64), trials=12, seed=3)
    sharp = [r.c_sharp for r in reps]
    # constant grows ~ width^2: doubling ratios decrease toward 4
    ratios = [b / a for a, b in zip(sharp, sharp[1:])]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert abs(ratios[-1] - 4.0) < 0.7


def test_poincare_one_and_two_free_vertices(chain):
    # widths 6 and 7 leave one and two free vertices: c_sharp = 1/4 and 1/2
    reps = check_poincare(chain, widths=(6, 7), trials=4, seed=3)
    assert [r.c_sharp for r in reps] == pytest.approx([0.25, 0.5], rel=1e-12)
    assert all(r.witness == "extremal" for r in reps)


def test_poincare_doubling_within_factor(examples):
    for name, g in examples.items():
        r1, r2 = check_poincare(g, widths=(32, 64), trials=40, seed=7)
        ratio = r2.c_empirical / r1.c_empirical
        assert 4.0 / 1.25 <= ratio <= 4.0 * 1.25, (name, ratio)
        assert r1.c_empirical >= r1.c_sharp - 1e-9  # extremal field included


def test_coarse_l2_contraction(examples, rng):
    # Jensen: per-cell mean energy never exceeds the vertex energy
    g = examples["ex5"]
    fg, u = _window_function(g, 6, scale=0.5)
    u.values[:] = rng.standard_normal(len(fg.positions))
    field = coarse_field(u, [(-1.0, 100.0)])
    lhs = sum(g.n_cell * 0.5 ** g.d * v * v for v in field.means.values())
    rhs = sum(0.5 ** g.d * v * v for v in u.values)
    assert lhs <= rhs + 1e-12


def test_hypothesis_norms_scaling(chain):
    fg, u = _window_function(chain, 16, scale=1.0 / 16)
    u.values[:] = fg.positions[:, 0] / 16.0
    l2, grad = hypothesis_norms(u, [(0.0, 1.0)])
    assert 0 < l2 < 1.0
    assert grad > 0


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4", "ex5", "ex6"])
def test_poincare_sharp_constant_exact(examples, name):
    # c_sharp is the extremal field's own inverse Rayleigh quotient, that
    # field is scored, and it agrees with a dense eigensolve of the same
    # constrained Laplacian
    import scipy.linalg
    from pinned_reference import laplacian, reduction
    g = examples[name]
    widths = (64, 256)
    reps = check_poincare(g, widths, trials=8, seed=5)
    again = check_poincare(g, widths, trials=8, seed=5)
    assert [r.to_dict() for r in reps] == [r.to_dict() for r in again]
    layer = 2.0 * math.sqrt(g.d) * g.T
    for width, rep in zip(widths, reps):
        assert rep.c_empirical >= rep.c_sharp
        W = width * g.T
        pos, _, ends, weights = position_box(g, [0] * g.d, [W] * g.d)
        free = np.minimum(pos, W - pos).min(axis=1) > layer
        A, _ = reduction(laplacian(len(pos), ends, 2.0 * weights), ~free, np.zeros(len(pos)))
        lowest = scipy.linalg.eigh(A.toarray(), eigvals_only=True, subset_by_index=[0, 0])[0]
        assert rep.c_sharp == pytest.approx(1.0 / lowest, rel=1e-9, abs=0), (name, width)


# ---------------------------------------------------------------------------
# pinned harness reports

PINNED_REPORTS = json.loads((Path(__file__).parent / "harness_reports.json").read_text())


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_harness_reports_pinned(examples, name):
    """The full reports of all three harnesses, equal to the last float."""
    g = (normalize_period(layered_square_lattice(), 2) if name == "L2 x2"
         else normalize_period(layered_square_lattice(), 4) if name == "L2 x4"
         else examples[name])
    assert {"two_connectedness": check_two_connectedness(g, trials=60, seed=5).to_dict(),
            "poincare_wirtinger": check_poincare_wirtinger(g, trials=60, seed=5).to_dict(),
            "poincare": [r.to_dict() for r in check_poincare(g, (8, 16), trials=25)],
            } == PINNED_REPORTS[name]
