"""Seeded inputs and gated call ladders for the four benchmark workloads.

`build(name, lh, seed, small)` is the set-up step: it generates every input
from the seed and returns the ladder, a list of `(op name, fn)` pairs.  One
pass calls each `fn(state)` in order, with a fresh `state` dict that lets a
later op read what an earlier op computed for the same graph.  An op is one
ladder call: it calls the library and checks the result with `gate`, which
raises `GateFailure` on a wrong answer.  The library only ever receives the
finished graphs, never the seed.

`small=True` shrinks every input so that the smoke test can run all four
workloads in seconds; it keeps every op kind and every gate.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction

import numpy as np

# Every gate each workload evaluates; the smoke test checks that a pass
# evaluates exactly these, so no gate is silently skipped.
GATES = {
    "periodic-large": {
        "L2 tensor exact", "R tensor symmetric", "R diagonal within bounds"},
    "small-many": {
        "round trip identity", "validate ok", "fixture golden coefficient",
        "oracle agrees", "f_hom equals quadratic form",
        "two-connectedness holds", "poincare-wirtinger holds", "cli exits 0"},
    "window": {
        "gaps above -1e-8", "gaps decrease in K", "tiling check holds",
        "poincare empirical within sharp"},
    "dirichlet": {
        "energy difference decreases", "L2 error decreases",
        "fine solve continues the decrease"},
}

# Effective coefficient of each fixture under the convention named
# (README "The LGF text format").
GOLDEN = {"ex1": (4.0, "double"), "ex2": (4.0, "double"), "ex3": (4.0, "double"),
          "ex4": (2.5, "single"), "ex5": (8.0 / 3.0, "double"),
          "ex6": (4.0, "double")}

L2_TENSOR = np.array([[20.0 / 3.0, 2.0 / 3.0], [2.0 / 3.0, 14.0 / 3.0]])


class GateFailure(Exception):
    """A library call returned a result that its gate rejects."""


class Gates:
    """Evaluates gates and remembers which ones ran."""

    def __init__(self):
        self.seen = set()

    def __call__(self, ok, name, detail=""):
        self.seen.add(name)
        if not ok:
            raise GateFailure(f"{name}: {detail}")


def rel_close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def strictly_decreasing(values):
    return all(b < a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# input generators


def make_l2(lh):
    """Two-layer d=2 cell: exact tensor [[20/3, 2/3], [2/3, 14/3]], zero corrector."""
    a, b = (0, 0, 0), (0, 0, 1)
    return lh.graph_from_edges(2, 1, 1, [a, b], [
        (a, a, (1, 0), 2.0), (a, a, (0, 1), 1.0), (a, a, (1, 1), 1.0 / 3.0),
        (b, b, (1, 0), 1.0), (b, b, (0, 1), 1.0),
        (a, b, (0, 0), 1.0)])


def make_random_square(lh, T, seed):
    """R(T, seed): T x T square cell, U(0.5, 2) bond weights, wrapping at T-1.

    Returns the graph and the weights w[axis, x, y] of the bond leaving
    site (x, y) along that axis.
    """
    w = np.random.default_rng(seed).uniform(0.5, 2.0, size=(2, T, T))
    nodes = [(x, y) for x in range(T) for y in range(T)]
    edges = []
    for x in range(T):
        for y in range(T):
            edges.append(((x, y), ((x + 1) % T, y), (int(x == T - 1), 0),
                          float(w[0, x, y])))
            edges.append(((x, y), (x, (y + 1) % T), (0, int(y == T - 1)),
                          float(w[1, x, y])))
    return lh.graph_from_edges(2, 0, T, nodes, edges), w


def make_strip(lh, P, seed):
    """S(P, seed): d=1, k=1 two-rail strip of period P with random rungs."""
    rng = np.random.default_rng(seed)
    rails = rng.uniform(0.5, 2.0, size=(2, P))
    rungs = [0] + [x for x in range(1, P) if rng.random() < 0.5]
    edges = []
    for r in range(2):
        for x in range(P):
            edges.append(((x, r), ((x + 1) % P, r), (int(x == P - 1),),
                          float(rails[r, x])))
    for x in rungs:
        edges.append(((x, 0), (x, 1), (0,), 1.0))
    nodes = [(x, r) for x in range(P) for r in range(2)]
    return lh.graph_from_edges(1, 1, P, nodes, edges)


def axis_bounds(w):
    """Cut-bond and affine bounds on the diagonal of the R(T) tensor (double).

    Cutting every bond across an axis leaves parallel chains whose
    conductance is the harmonic mean along the line; the affine field gives
    the arithmetic mean.
    """
    lower = [2.0 * np.mean(1.0 / np.mean(1.0 / w[0], axis=0)),
             2.0 * np.mean(1.0 / np.mean(1.0 / w[1], axis=1))]
    upper = [2.0 * np.mean(w[0]), 2.0 * np.mean(w[1])]
    return lower, upper


# ---------------------------------------------------------------------------
# ladders


def periodic_large(lh, seed, small, gate):
    sizes = (8, 16) if small else (64, 128)
    l2 = lh.normalize_period(make_l2(lh), 6 if small else 48)
    randoms = [(T,) + make_random_square(lh, T, seed) for T in sizes]

    def tensor_l2(state):
        A = lh.homogenized_tensor(l2).entries
        gate(all(rel_close(a, b, 1e-9) for a, b in zip(A.flat, L2_TENSOR.flat)),
             "L2 tensor exact", f"{A.tolist()}")

    def tensor_random(graph, w):
        def op(state):
            A = lh.homogenized_tensor(graph).entries
            gate(A[0, 1] == A[1, 0], "R tensor symmetric", f"{A.tolist()}")
            lower, upper = axis_bounds(w)
            gate(all(lo <= A[m, m] <= hi for m, (lo, hi) in enumerate(zip(lower, upper))),
                 "R diagonal within bounds", f"{A.diagonal()} vs {lower}, {upper}")
        return op

    ops = [(f"tensor R({T})", tensor_random(g, w)) for T, g, w in randoms]
    ops.append((f"tensor L2 x{l2.T}", tensor_l2))
    return ops


def small_many(lh, seed, small, gate):
    fixtures = lh.builtin_examples()
    l2 = make_l2(lh)
    graphs = list(fixtures.items())
    graphs += [(f"L2 x{T}", lh.normalize_period(l2, T) if T > 1 else l2)
               for T in ((1, 2) if small else (1, 2, 4))]
    graphs.append(("R(4)", make_random_square(lh, 4, seed)[0]))
    graphs += [(f"S({P})", make_strip(lh, P, seed))
               for P in ((3, 5) if small else (3, 5, 8, 12, 16))]
    rng = np.random.default_rng(seed)
    n_dirs = 4 if small else 64
    trials = 20 if small else 200
    fixture_dir = os.path.join(os.path.dirname(lh.__file__), "fixtures")
    widths = ["--widths", "8,16"] if small else []

    ops = []
    for name, graph in graphs:
        ops += graph_ops(lh, name, graph, rng.standard_normal((n_dirs, graph.d)),
                         fixtures, trials, gate)
    for ex in ("ex1", "ex5"):
        path = os.path.join(fixture_dir, f"{ex}.lgf")
        ops.append((f"cli cell {ex}", cli_op(lh, ["cell", path, "--format", "json"], gate)))
        ops.append((f"cli inequalities {ex}", cli_op(
            lh, ["inequalities", path, "--format", "json",
                 "--trials", str(trials)] + widths, gate)))
    return ops


def graph_ops(lh, name, graph, directions, fixtures, trials, gate):
    def round_trip(state):
        parsed = lh.parse(lh.serialize(graph))
        gate(parsed == graph, "round trip identity", name)
        gate(lh.validate(parsed).ok, "validate ok", name)

    def tensor(state):
        A = lh.homogenized_tensor(graph).entries
        state[name] = A
        if name in fixtures:
            target, convention = GOLDEN[name]
            value = A[0, 0] if convention == "double" else A[0, 0] / 2.0
            gate(rel_close(value, target, 1e-9), "fixture golden coefficient",
                 f"{name}: {value!r} != {target!r}")

    def oracle(m):
        def op(state):
            e = np.zeros(graph.d)
            e[m] = 1.0
            value = lh.brute_force_cell_oracle(graph, e)
            gate(rel_close(value, state[name][m, m], 1e-9), "oracle agrees",
                 f"{name} axis {m}: {value!r} vs {state[name][m, m]!r}")
        return op

    def directional(z):
        def op(state):
            value = lh.f_hom(graph, z)
            gate(rel_close(value, float(z @ state[name] @ z), 1e-9),
                 "f_hom equals quadratic form", f"{name} z={z.tolist()}")
        return op

    def two_connectedness(state):
        rep = lh.check_two_connectedness(graph, trials=trials, seed=7)
        gate(rep.holds, "two-connectedness holds", f"{name}: {rep.worst_ratio!r}")

    def poincare_wirtinger(state):
        rep = lh.check_poincare_wirtinger(graph, trials=trials, seed=7)
        gate(rep.holds, "poincare-wirtinger holds", f"{name}: {rep.worst_ratio!r}")

    ops = [(f"{name} round trip", round_trip), (f"{name} tensor", tensor)]
    ops += [(f"{name} oracle axis {m}", oracle(m)) for m in range(graph.d)]
    ops += [(f"{name} f_hom {i}", directional(z)) for i, z in enumerate(directions)]
    ops += [(f"{name} two-connectedness", two_connectedness),
            (f"{name} poincare-wirtinger", poincare_wirtinger)]
    return ops


def cli_op(lh, argv, gate):
    def op(state):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lh.cli.run(argv)
        gate(code == 0 and json.loads(out.getvalue())["schema"] == "lattice-homog/1",
             "cli exits 0", f"{argv[:2]} exited {code}")
    return op


def window(lh, seed, small, gate):
    fixtures = lh.builtin_examples()
    r4 = make_random_square(lh, 4, seed)[0]
    if small:
        studies = [("R(4) z=(1,0)", r4, (1.0, 0.0), [4, 8]),
                   ("R(4) z=(1,1)", r4, (1.0, 1.0), [4, 8])]
        ks_1d, tiling_k, widths = [16, 32], 4, [16, 32]
    else:
        studies = [("R(4) z=(1,0)", r4, (1.0, 0.0), [8, 16, 32, 48]),
                   ("R(4) z=(1,1)", r4, (1.0, 1.0), [8, 16, 32])]
        ks_1d, tiling_k, widths = [16, 32, 64, 128, 256], 16, [64, 256]
    studies += [(ex, fixtures[ex], (1.0,), ks_1d) for ex in ("ex3", "ex4", "ex5")]

    def study(name, graph, z, Ks):
        def op(state):
            gaps = [row.gap for row in lh.convergence_study(graph, z, Ks).rows]
            gate(min(gaps) >= -1e-8, "gaps above -1e-8", f"{name}: {gaps}")
            gate(strictly_decreasing(gaps), "gaps decrease in K", f"{name}: {gaps}")
        return op

    def tiling(state):
        check = lh.tiling_check(r4, (1.0, 0.0), tiling_k)
        gate(check.holds, "tiling check holds", f"{check}")

    def poincare(state):
        for rep in lh.check_poincare(fixtures["ex5"], widths, trials=25):
            gate(rep.c_empirical <= rep.c_sharp * (1.0 + 1e-9),
                 "poincare empirical within sharp",
                 f"width {rep.width_cells}: {rep.c_empirical!r} > {rep.c_sharp!r}")

    ops = [(f"study {name}", study(name, g, z, Ks)) for name, g, z, Ks in studies]
    ops += [(f"tiling R(4) K={tiling_k}", tiling), ("poincare ex5", poincare)]
    return ops


def dirichlet(lh, seed, small, gate):
    l2 = make_l2(lh)
    ex5 = lh.builtin_examples()["ex5"]
    square = ((0, 1), (0, 1))
    affine = lh.affine_datum(0.0, [1.0, 0.5])
    quadratic = lh.BoundaryDatum(lambda x: x[0] * x[0] - x[1], name="x*x - y")
    eps_2d = ["1/4", "1/8"] if small else ["1/4", "1/8", "1/16"]
    fine_eps = "1/16" if small else "1/64"
    eps_1d = ["1/8", "1/16"] if small else ["1/8", "1/16", "1/32", "1/64"]

    def study(name, graph, omega, phi, eps_list, check_l2):
        def op(state):
            res = lh.epsilon_convergence_study(graph, omega, phi, eps_list)
            diffs = [abs(r.discrete_energy - r.continuum_energy) for r in res.rows]
            gate(strictly_decreasing(diffs), "energy difference decreases",
                 f"{name}: {diffs}")
            if check_l2:
                errs = [r.l2_error for r in res.rows]
                gate(strictly_decreasing(errs), "L2 error decreases", f"{name}: {errs}")
            state[name] = (res.continuum.energy, diffs[-1])
        return op

    def fine_solve(state):
        u, energy = lh.solve_dirichlet(
            lh.DirichletProblem(l2, square, Fraction(fine_eps), quadratic))
        continuum, coarse_diff = state["L2 x*x - y"]
        gate(bool(np.all(np.isfinite(u.values)))
             and abs(energy - continuum) < coarse_diff,
             "fine solve continues the decrease",
             f"|{energy!r} - {continuum!r}| vs {coarse_diff!r}")

    return [
        ("study L2 x + 0.5y", study("L2 x + 0.5y", l2, square, affine, eps_2d, False)),
        ("study L2 x*x - y", study("L2 x*x - y", l2, square, quadratic, eps_2d, True)),
        (f"solve_dirichlet L2 x*x - y eps={fine_eps}", fine_solve),
        ("study ex5 x", study("ex5 x", ex5, ((0, 1),), lh.affine_datum(0.0, [1.0]),
                              eps_1d, True)),
    ]


LADDERS = {"periodic-large": periodic_large, "small-many": small_many,
           "window": window, "dirichlet": dirichlet}
WORKLOADS = tuple(LADDERS)


def build(name, lh, seed, small, gate):
    """Generate the inputs of workload `name` and return its ladder."""
    return LADDERS[name](lh, seed, small, gate)
