import json
import math
from pathlib import Path

import numpy as np
import pytest

from lattice_homog import (CellOutOfWindow, DisconnectedGraph, graph_from_edges,
                           instantiate_window, normalize_period)
from lattice_homog import cli, coarse
from lattice_homog.graph import position_box
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

from conftest import layered_square_lattice


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
        assert rep.trials == 200


def test_poincare_wirtinger_fixtures(examples):
    for name, g in examples.items():
        rep = check_poincare_wirtinger(g, trials=200, seed=7)
        assert rep.holds, (name, rep.worst_ratio)


def test_harness_deterministic(examples):
    g = examples["ex3"]
    a = check_two_connectedness(g, trials=60, seed=11)
    b = check_two_connectedness(g, trials=60, seed=11)
    assert a.worst_ratio == b.worst_ratio and a.witness == b.witness


def test_harness_witness_is_earliest_tied_trial(examples):
    # every affine trial on ex5 ties at 5/38 (two-connectedness) in exact
    # arithmetic; the witness is the first of them, not the one with the
    # largest rounding error
    g = examples["ex5"]
    for seed, trials in ((5, 60), (7, 200)):
        two = check_two_connectedness(g, trials=trials, seed=seed)
        pw = check_poincare_wirtinger(g, trials=trials, seed=seed)
        assert two.witness == "trial 1 (affine), pair (0,)->(1,)"
        assert pw.witness == "trial 1 (affine), cell (0,)"
    assert [r.witness for r in check_poincare(g, (32, 64), trials=50)] == ["extremal"] * 2


@pytest.mark.parametrize("seed", [-1, 1.5, "7", None])
def test_harnesses_reject_bad_seed(examples, seed):
    # check_poincare seeds width w with seed + w, so seed -1 used to run as seed 7
    g = examples["ex1"]
    for harness in (check_two_connectedness, check_poincare_wirtinger,
                    lambda g, seed: check_poincare(g, [8], seed=seed)):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            harness(g, seed=seed)


def test_harnesses_reject_vacuous_trial_counts(examples):
    # no trial scored would report worst_ratio 0.0 and hold; check_poincare
    # always scores its extremal and tent fields, so 0 trials is a report
    g = examples["ex1"]
    for trials in (0, -3):
        for harness in (check_two_connectedness, check_poincare_wirtinger):
            with pytest.raises(ValueError, match="trials must be at least 1"):
                harness(g, trials=trials)
    with pytest.raises(ValueError, match="trials must be at least 0"):
        check_poincare(g, [8], trials=-1)
    [rep] = check_poincare(g, [8], trials=0)
    assert rep.trials == 0 and rep.witness == "extremal"


@pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5])
def test_trial_seeding_matches_numpy(seed):
    # the vectorized seed states are numpy's SeedSequence hash, and a trial's
    # generator draws the stream of default_rng((seed, t))
    ts = [0, 1, 199, 2 ** 31 - 1]
    states = coarse._seed_states(seed, ts)
    for t, state in zip(ts, states):
        assert state.tolist() == np.random.SeedSequence((seed, t)).generate_state(
            4, np.uint64).tolist()
        rng = np.random.Generator(np.random.PCG64(coarse._SeedState(state)))
        expected = np.random.default_rng((seed, t))
        assert rng.standard_normal(3).tolist() == expected.standard_normal(3).tolist()
        assert rng.integers(1000) == expected.integers(1000)


def test_constant_field_gives_zero_ratio(examples):
    # the constant family is not among the trial families, so check directly
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
        assert r1.c_empirical >= r1.c_sharp - 1e-9  # extremal trial included


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
    # field is a trial, and it agrees with a dense eigensolve of the same
    # constrained Laplacian
    import scipy.linalg
    from lattice_homog.graph import laplacian, pinned_reduction
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
        A, _ = pinned_reduction(laplacian(len(pos), ends, 2.0 * weights), ~free,
                                np.zeros(len(pos)))
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
