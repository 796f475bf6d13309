"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Criteria 3 and 5 each contain one sub-check that is unattainable for the
faithful fixture geometries; those sub-checks are asserted as stated and
reported honestly rather than loosened (the failure messages explain why).
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from lattice_homog import (
    brute_force_cell_oracle,
    builtin_examples,
    corrector,
    f_hom,
    homogenized_tensor,
    parse,
    serialize,
)
from lattice_homog.asymptotic import convergence_study, tiling_check
from lattice_homog.bvp import BoundaryDatum, DirichletProblem, continuum_reference, \
    epsilon_convergence_study, solve_dirichlet
from lattice_homog.coarse import check_poincare, check_poincare_wirtinger, \
    check_two_connectedness
from lattice_homog.lgf import EXAMPLE_NAMES, ParseError

from conftest import chain_graph
from test_lgf import MALFORMED

REFERENCE_VALUES = {
    "ex1": 4.0,
    "ex2": 4.0,
    "ex3": 4.0,
    "ex4": 2.5,
    "ex5": 8.0 / 3.0,
    "ex6": 4.0,
}


def _report(num, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE {num}: {status}"
    if detail:
        line += f" - {detail}"
    print("\n" + line)
    for f in failures:
        print(f"  * {f}")
    assert not failures, "; ".join(failures)


@pytest.fixture(scope="module")
def fixtures():
    return builtin_examples()


def test_criterion_1_golden_cell_problems(fixtures):
    failures, matches = [], []
    for name, g in fixtures.items():
        t0 = time.perf_counter()
        double = f_hom(g, [1.0], convention="double")
        single = f_hom(g, [1.0], convention="single")
        oracle = brute_force_cell_oracle(g, [1.0], convention="double")
        elapsed = time.perf_counter() - t0
        if abs(double - oracle) > 1e-9 * abs(oracle):
            failures.append(f"{name}: solver {double!r} vs oracle {oracle!r}")
        if elapsed >= 1.0:
            failures.append(f"{name}: cell problem took {elapsed:.2f}s")
        if abs(double - 2.0 * single) > 1e-12 * abs(double):
            failures.append(f"{name}: conventions not in exact 2x relation")
        target = REFERENCE_VALUES[name]
        hit = [c for c, v in (("double", double), ("single", single))
               if abs(v - target) <= 1e-9 * target]
        if not hit:
            failures.append(f"{name}: neither convention matches {target}")
        else:
            matches.append(f"{name}={target:g}({hit[0]})")
    _report(1, failures, "matching conventions: " + ", ".join(matches))


def test_criterion_2_minimizer_reproduction(fixtures):
    failures = []
    g4 = fixtures["ex4"]
    vals4 = corrector(g4, [1.0]).as_dict(g4)
    u4 = {name: g4.nodes[i].dpos[0] + vals4[name]
          for i, name in enumerate(str(n) for n in g4.nodes)}
    gap4 = u4["(0 1)"] - u4["(0 0)"]
    if abs(gap4 - (-0.5)) > 1e-9:
        failures.append(f"ex4: value gap {gap4!r} != -1/2")

    g5 = fixtures["ex5"]
    vals5 = corrector(g5, [1.0]).as_dict(g5)
    u5 = {str(n): n.dpos[0] + vals5[str(n)] for n in g5.nodes}
    shift = 4.0 / 3.0 - u5["(1 1)"]   # one additive constant
    if abs(u5["(1 1)"] + shift - 4.0 / 3.0) > 1e-9:
        failures.append("ex5: cannot match 4/3 at (1,1)")
    if abs(u5["(2 1)"] + shift - 8.0 / 3.0) > 1e-9:
        failures.append(f"ex5: (2,1) -> {u5['(2 1)'] + shift!r} != 8/3")
    _report(2, failures, "ex4 gap -1/2; ex5 values 4/3, 8/3 up to one constant")


def test_criterion_3_asymptotic_formula(fixtures):
    failures = []
    t0 = time.perf_counter()
    gap_notes = []
    for name, g in fixtures.items():
        table = convergence_study(g, [1.0], [2, 4, 8, 16])
        for row in table.rows:
            if row.gap < -1e-8:
                failures.append(f"{name}: f_0^{row.K} below the cell value "
                                f"by {-row.gap!r}")
        final = table.rows[-1]
        rel = final.gap / table.cell_value
        gap_notes.append(f"{name}: gap16/f_hom={rel:.4%}")
        if not final.gap < 0.1 * table.cell_value:
            failures.append(
                f"{name}: gap at K=16 is {rel:.4%} of f_hom (need < 10%); the "
                "boundary-ring energy accounting that the lower-bound check "
                "requires pushes this marginal geometry just past 10%")
        for K in (2, 4, 8):
            check = tiling_check(g, [1.0], K)
            if not check.holds:
                failures.append(f"{name}: tiling bound fails at K={K}: "
                                f"{check.lhs!r} > {check.rhs!r} + {check.slack}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _report(3, failures, "; ".join(gap_notes) + f"; runtime {elapsed:.1f}s")


def test_criterion_4_inequality_suites(fixtures):
    failures = []
    for name, g in fixtures.items():
        two = check_two_connectedness(g, trials=200, seed=7)
        pw = check_poincare_wirtinger(g, trials=200, seed=7)
        if not two.holds:
            failures.append(f"{name}: two-connectedness worst ratio "
                            f"{two.worst_ratio!r} > 1")
        if not pw.holds:
            failures.append(f"{name}: deviation-from-mean worst ratio "
                            f"{pw.worst_ratio!r} > 1")
        r1, r2 = check_poincare(g, widths=(32, 64), trials=40, seed=7)
        ratio = r2.c_empirical / r1.c_empirical
        if not (4.0 / 1.25 <= ratio <= 4.0 * 1.25):
            failures.append(f"{name}: Poincare doubling ratio {ratio!r} "
                            "outside [3.2, 5.0]")
    _report(4, failures, "exact worst ratios per fixture, doubling widths 32->64")


def test_criterion_5_bvp_convergence(fixtures):
    failures = []
    t0 = time.perf_counter()
    phi = BoundaryDatum(lambda x: x[0], name="x")
    eps_list = [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16), Fraction(1, 32)]

    chain = chain_graph()
    for eps in eps_list:
        _, energy = solve_dirichlet(DirichletProblem(chain, ((0, 1),), eps, phi))
        if abs(energy - 2.0) > 1e-10:
            failures.append(f"chain at eps={eps}: energy {energy!r} != 2")

    res = epsilon_convergence_study(fixtures["ex1"], ((0, 1),), phi, eps_list)
    diffs = [abs(r.discrete_energy - r.continuum_energy) for r in res.rows]
    if not all(b < a for a, b in zip(diffs, diffs[1:])):
        failures.append(
            f"ex1: |discrete - continuum| sequence {diffs!r} is not strictly "
            "decreasing; the discrete minimum equals the continuum minimum "
            "exactly at every eps for this geometry, so a strict decrease "
            "cannot occur")
    if not diffs[-1] <= 0.05 * res.continuum.energy:
        failures.append(f"ex1: final gap {diffs[-1]!r} above 5%")
    errs = [r.l2_error for r in res.rows]
    if not all(b < a for a, b in zip(errs, errs[1:])):
        failures.append(f"ex1: L2 errors {errs!r} not strictly decreasing")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(5, failures,
            f"ex1 diffs {['%.2e' % d for d in diffs]}, "
            f"L2 {['%.2e' % e for e in errs]}, runtime {elapsed:.1f}s")


def test_criterion_6_parser(fixtures):
    failures = []
    for name in EXAMPLE_NAMES:
        g = fixtures[name]
        text = serialize(g)
        if parse(text) != g or serialize(parse(text)) != text:
            failures.append(f"{name}: round trip not the identity")
    malformed = MALFORMED[:13]
    if len(malformed) < 10:
        failures.append("fewer than 10 malformed cases")
    for text, kind, line in malformed:
        try:
            parse(text)
            failures.append(f"malformed input accepted: {text!r}")
        except ParseError as err:
            if err.kind != kind or err.line != line:
                failures.append(f"{text!r}: got {err.kind}@{err.line}, "
                                f"want {kind}@{line}")
    _report(6, failures, f"round trips on {len(EXAMPLE_NAMES)} fixtures, "
                         f"{len(malformed)} malformed inputs")


def test_criterion_7_solver_properties(fixtures):
    failures = []
    rng = np.random.default_rng(7)
    for name, g in fixtures.items():
        base = f_hom(g, [1.0])
        for alpha in (0.5, 2.0, 3.0):
            val = f_hom(g, [alpha])
            if abs(val - alpha ** 2 * base) > 1e-10 * abs(val):
                failures.append(f"{name}: homogeneity fails at alpha={alpha}")
        tensor = homogenized_tensor(g)
        if not np.allclose(tensor.entries, tensor.entries.T, atol=0):
            failures.append(f"{name}: tensor not symmetric")
        if np.linalg.eigvalsh(tensor.entries).min() <= 0:
            failures.append(f"{name}: tensor not positive definite")
        for _ in range(20):
            z = rng.standard_normal(g.d)
            direct = f_hom(g, z)
            quad = tensor.quadratic_form(z)
            if abs(quad - direct) > 1e-8 * max(abs(direct), 1e-12):
                failures.append(f"{name}: polarization mismatch at z={z}")
                break
    _report(7, failures, "homogeneity, symmetry, positivity, polarization")
