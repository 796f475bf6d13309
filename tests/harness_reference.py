"""Two independent routes to the local inequality harnesses' worst ratios.

coarse.check_two_connectedness and coarse.check_poincare_wirtinger report
the exact supremum of each ratio over all fields, from one grounded sparse
factorization per region.  Two routes check them on the same regions,
restated here from the harnesses' definitions:

- the per-trial route scores seeded random fields (gaussian, affine,
  indicator, checkerboard) one at a time; each is a field, so its worst
  ratio is a lower bound that the exact value must not fall below;
- the dense route takes the supremum from numpy.linalg.pinv of the whole
  region Laplacian, with no grounding, no search and no SuperLU;
- the augmented dense route takes it from one dense Cholesky solve with the
  Laplacian of the vertices a region's edges touch plus J / N, for regions
  whose edges join those vertices into one component: several times
  cheaper than pinv on the harness regions of R(12) and R(16).
"""

import math

import numpy as np
import scipy.linalg as sla

from lattice_homog.graph import edge_energy, inside, position_box


def local_regions(graph):
    """(the harness region's FiniteGraph, {harness: (constant, regions)}) of
    both local harnesses, a region being (label, lhs, C, ends, coef): its
    left-hand side for a field u is lhs(u) = |C^T u|^2, summed as the
    harnesses summed it when they scored random fields (a constant field
    gives exactly 0), and its energy is edge_energy(ends, coef, u)."""
    consts = graph.path_constants
    T, d, M, n = graph.T, graph.d, consts.M, graph.n_cell
    region = position_box(graph, [-(M - 1)] * d, [2 * T - 1 + (M - 1)] * d)
    pos, _, ends, weights = region
    in_cell = np.flatnonzero(inside(pos, 0, T - 1))

    def mean_gap(u, members):
        gap = u[in_cell].sum() / n - u[members].sum() / n
        return gap * gap

    def deviation(u, members):
        dev = u[members] - u[members].sum() / n
        return (dev * dev).sum()

    pairs = []
    for other in np.eye(d, dtype=int):
        in_other = np.flatnonzero(inside(pos, T * other, T * other + T - 1))
        a = np.zeros((len(pos), 1))
        a[in_cell], a[in_other] = 1.0 / n, -1.0 / n
        keep = inside(pos, -(M - 1), T * other + T - 1 + (M - 1))[ends].all(axis=1)
        pairs.append((f", pair {(0,) * d}->{tuple(other.tolist())}",
                      lambda u, m=in_other: mean_gap(u, m), a,
                      ends[keep], np.full(int(keep.sum()), 2.0)))
    cells = [np.zeros(d, dtype=int)] + ([np.eye(d, dtype=int)[0]] if M > T else [])
    deviations = []
    for cell in cells:
        members = np.flatnonzero(inside(pos, cell * T, (cell + 1) * T - 1))
        C = np.zeros((len(pos), n))
        C[members] = np.eye(n) - 1.0 / n
        keep = inside(pos, cell * T - (M - 1), (cell + 1) * T - 1 + (M - 1))[ends].all(axis=1)
        deviations.append((f", cell {tuple(cell.tolist())}",
                           lambda u, m=members: deviation(u, m), C,
                           ends[keep], 2.0 * weights[keep]))
    return region, {"two_connectedness": (consts.C_two, pairs),
                    "poincare_wirtinger": (consts.C_pw, deviations)}


def trial_fields(seed, pos, node_ids, trials):
    """Deterministic per-trial families: gaussian, affine, indicator,
    checkerboard, yielded as (name, values).

    Each trial draws from its own (seed, t)-keyed stream, so trials can run
    in any order without changing the outcome.
    """
    n = len(pos)
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        fam = ("gaussian", "affine", "indicator", "checkerboard")[t % 4]
        if fam == "gaussian":
            vals = rng.standard_normal(n)
        elif fam == "affine":
            slope = rng.standard_normal(pos.shape[1])
            vals = pos @ slope + rng.standard_normal()
        elif fam == "indicator":
            vals = np.zeros(n)
            vals[rng.integers(n)] = 1.0
        else:
            vals = ((pos.sum(axis=1) + node_ids) % 2).astype(float) * 2 - 1
        yield f"trial {t} ({fam})", vals


def worst_ratio(fields, regions, constant):
    """(largest ratio, witness) over every (field, region) pair.

    A field is (name, values u); a region is (label, lhs, ends, coef), and
    its ratio for u is lhs(u) / (constant * edge_energy(ends, coef, u)): 0
    when lhs(u) = 0, inf when the energy is 0.  The witness, name + label,
    is that of the earliest pair within relative 1e-12 of the largest ratio:
    pairs whose ratios are equal in exact arithmetic differ only by
    rounding, so the earliest of them is the witness that does not depend
    on it.  (0.0, "") when no ratio is positive.
    """
    ratios = []
    for name, u in fields:
        for label, lhs, ends, coef in regions:
            top, rhs = lhs(u), edge_energy(ends, coef, u)
            ratios.append((0.0 if top == 0 else math.inf if rhs == 0
                           else top / (constant * rhs), name + label))
    worst = max((r for r, _ in ratios), default=0.0)
    if worst <= 0:
        return 0.0, ""
    return worst, next(label for r, label in ratios
                       if math.isclose(r, worst, rel_tol=1e-12))


def trial_worst(graph, trials=200, seed=7):
    """{harness: (worst ratio, witness)} of the per-trial route: trials
    fields drawn on the harness region, each scored on every region."""
    (pos, node_ids, _, _), harnesses = local_regions(graph)
    out = {}
    for harness, (constant, regions) in harnesses.items():
        scored = [(label, lhs, ends, coef) for label, lhs, _, ends, coef in regions]
        out[harness] = worst_ratio(trial_fields(seed, pos, node_ids, trials), scored, constant)
    return out


def dense_worst(graph):
    """{harness: worst ratio} of the dense route: per region, the largest
    eigenvalue of C^T pinv(L) C for the dense Laplacian L of the region's
    edges on all of the harness region's vertices, over the constant."""
    (pos, _, _, _), harnesses = local_regions(graph)
    out = {}
    for harness, (constant, regions) in harnesses.items():
        sups = []
        for _, _, C, ends, coef in regions:
            L, (a, b) = np.zeros((len(pos), len(pos))), ends.T
            for i, j, sign in ((a, a, 1), (b, b, 1), (a, b, -1), (b, a, -1)):
                np.add.at(L, (i, j), sign * coef)
            sups.append(np.linalg.eigvalsh(C.T @ np.linalg.pinv(L, hermitian=True) @ C)[-1])
        out[harness] = max(float(s) / constant if s > 0 else 0.0 for s in sups)
    return out


def augmented_worst(graph, harness):
    """The worst ratio of `harness` by the augmented dense route: per region,
    the largest eigenvalue of C^T X over the constant, where X solves
    (L + J / N) X = C by dense Cholesky for the dense Laplacian L of the
    region's edges on the N vertices they touch and J the all-ones matrix.
    When those edges join the N vertices into one component, L + J / N is
    L with its null space, the constants, mapped to 1, so it is positive
    definite, and X = L^+ C since the columns of C sum to zero; the caller
    checks the component, and every row of C off the touched vertices must
    vanish."""
    _, harnesses = local_regions(graph)
    constant, regions = harnesses[harness]
    sups = []
    for _, _, C, ends, coef in regions:
        touched = np.unique(ends)
        assert not C[np.setdiff1d(np.arange(len(C)), touched)].any()
        a, b = np.searchsorted(touched, ends).T
        L = np.full((len(touched), len(touched)), 1.0 / len(touched))
        for i, j, sign in ((a, a, 1), (b, b, 1), (a, b, -1), (b, a, -1)):
            np.add.at(L, (i, j), sign * coef)
        X = sla.cho_solve(sla.cho_factor(L), C[touched])
        sups.append(np.linalg.eigvalsh(C[touched].T @ X)[-1])
    return max(float(s) / constant if s > 0 else 0.0 for s in sups)
