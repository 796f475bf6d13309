"""Per-trial reference for the inequality harnesses' trial fields and scoring.

coarse._trial_fields and coarse._worst_ratio build and score the trial
fields in blocks; these are the one-trial-at-a-time versions they replaced,
kept to check that the blocks change no report.  `reference_reports` runs
the three harnesses with them patched in, each trial a block of one row.
"""

import math

import numpy as np
import pytest

from lattice_homog import coarse
from lattice_homog.graph import edge_energy


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


def harness_reports(graph, trials, seed, widths):
    """The to_dict() of all three harness reports."""
    return {"two_connectedness":
            coarse.check_two_connectedness(graph, trials=trials, seed=seed).to_dict(),
            "poincare_wirtinger":
            coarse.check_poincare_wirtinger(graph, trials=trials, seed=seed).to_dict(),
            "poincare": [r.to_dict() for r in
                         coarse.check_poincare(graph, widths, trials=trials, seed=seed)]}


def reference_reports(graph, trials, seed, widths):
    """harness_reports with the per-trial fields and scoring patched in.

    The local harnesses must draw with the patched fields, even right after
    an unpatched call with the same arguments kept its draw."""
    seeds = []

    def one_row_blocks(*args):
        seeds.append(args[0])
        return (([name], u[None, :]) for name, u in trial_fields(*args))

    def rows(fields, regions, constant):
        return worst_ratio(((name, u) for names, U in fields for name, u in zip(names, U)),
                           regions, constant)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coarse, "_trial_fields", one_row_blocks)
        patch.setattr(coarse, "_worst_ratio", rows)
        reports = harness_reports(graph, trials, seed, widths)
    assert seed in seeds, "the local harnesses were served an unpatched draw"
    return reports
