"""Command-line front end.

Subcommands: validate, cell, asymptotic, inequalities, bvp, examples.
Exit codes: 0 success, 1 validation or inequality failure, 2 usage error.
Output formats: human (default), json (schema "lattice-homog/1"), csv for
tabular studies.
"""

from __future__ import annotations

import argparse
import ast
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import asymptotic, bvp, cell, coarse, lgf
from .errors import LatticeError
from .graph import validate

SCHEMA = "lattice-homog/1"

_USAGE_ERROR = 2
_CHECK_FAILED = 1


class UsageError(Exception):
    pass


def _load_graph(path):
    try:
        return lgf.load(path)
    except FileNotFoundError as exc:
        raise UsageError(f"file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except lgf.ParseError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _check_tol(tol):
    # CG stops once |r| <= tol |b|, which the zero corrector meets for tol >= 1
    if not 0 < tol < 1:
        raise UsageError("--tol must be " + ("below 1" if tol >= 1 else "positive"))


def _parse_fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}") from exc


def _parse_list(text, conv, what):
    try:
        return [conv(p) for p in text.split(",") if p.strip()]
    except UsageError:
        raise
    except Exception as exc:
        raise UsageError(f"bad {what} list {text!r}: {exc}") from exc


_PHI_FUNCS = {name: getattr(math, name)
              for name in ("sin", "cos", "tan", "exp", "log", "sqrt", "atan")}
_PHI_FUNCS["abs"] = abs
_PHI_NAMES = set(_PHI_FUNCS) | {"pi", "e"}


def parse_datum(expr, d):
    """Compile a boundary-datum expression in x (and y, z up to d) to a callable."""
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise UsageError(f"bad --phi expression {expr!r}: {exc}") from exc
    coords = set("xyz"[:d])
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in set("xyz") - coords:
            raise UsageError(f"--phi uses {node.id!r}, but the graph has d={d}")
        if isinstance(node, ast.Name) and node.id not in _PHI_NAMES | coords:
            raise UsageError(f"unknown name {node.id!r} in --phi")
        if isinstance(node, ast.Call) and not (
                isinstance(node.func, ast.Name) and node.func.id in _PHI_FUNCS):
            raise UsageError("only plain math calls are allowed in --phi")
        if isinstance(node, (ast.Attribute, ast.Subscript, ast.Lambda)):
            raise UsageError(f"disallowed construct in --phi: {type(node).__name__}")
    code = compile(tree, "<phi>", "eval")

    def fn(point):
        env = dict(_PHI_FUNCS)
        env.update(pi=math.pi, e=math.e)
        for i, name in enumerate("xyz"[:d]):
            env[name] = float(point[i])
        return eval(code, {"__builtins__": {}}, env)

    return bvp.BoundaryDatum(fn, name=expr)


def emit(report, fmt):
    """Deterministic bytes for a report dict; csv needs report["csv_rows"]."""
    if fmt == "json":
        payload = {k: v for k, v in report.items() if k not in ("human", "csv_rows",
                                                                "csv_header")}
        payload["schema"] = SCHEMA
        return (json.dumps(payload, sort_keys=True, indent=2,
                           allow_nan=True, default=str) + "\n").encode()
    if fmt == "csv":
        if "csv_rows" not in report:
            raise UsageError("this subcommand has no csv representation")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(report["csv_header"])
        writer.writerows(report["csv_rows"])
        return buf.getvalue().encode()
    return ("\n".join(report["human"]) + "\n").encode()


def _tensor_dict(tensor):
    return {"entries": [[float(v) for v in row] for row in tensor.entries],
            "convention": tensor.convention,
            "tolerance": tensor.tolerance}


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args):
    graph = _load_graph(args.file)
    report = validate(graph)
    out = {
        "config": {"command": "validate", "input": args.file},
        "graph": {"d": graph.d, "k": graph.k, "T": graph.T, "M": graph.M,
                  "nodes": graph.n_cell, "orbits": len(graph.w)},
        "report": report.to_dict(),
        "human": [f"{args.file}: d={graph.d} k={graph.k} T={graph.T} M={graph.M} "
                  f"nodes={graph.n_cell} orbits={len(graph.w)}"]
                 + [f"  [{'ok' if c.passed else 'FAIL'}] {c.name}: {c.detail}"
                    for c in report.checks]
                 + [f"  R = {report.R}"],
    }
    return out, 0 if report.ok else _CHECK_FAILED


def cmd_cell(args):
    graph = _load_graph(args.file)
    _check_tol(args.tol)
    tensor = cell.homogenized_tensor(graph, tol=args.tol, convention=args.convention)
    other = "single" if args.convention == "double" else "double"
    factor = 0.5 if args.convention == "double" else 2.0
    axes = []
    human = [f"{args.file}: homogenized tensor ({args.convention} convention, "
             f"tol {args.tol:g})"]
    for m, corr in enumerate(tensor.correctors):
        f_m = float(tensor.entries[m, m])
        axes.append({
            "axis": m + 1,
            "f_hom": f_m,
            "f_hom_other_convention": f_m * factor,
            "corrector": corr.as_dict(graph),
            "residual": corr.residual,
        })
        human.append(f"  f_hom(e_{m+1}) = {f_m!r}   [{other}: {f_m * factor!r}]")
        human.append("  corrector: " + ", ".join(
            f"{node}={val!r}" for node, val in corr.as_dict(graph).items()))
    human.append("  A_hom rows: " + "; ".join(
        "[" + ", ".join(repr(float(v)) for v in row) + "]" for row in tensor.entries))
    out = {
        "config": {"command": "cell", "input": args.file,
                   "convention": args.convention, "tolerance": args.tol},
        "tensor": _tensor_dict(tensor),
        "axes": axes,
        "human": human,
    }
    return out, 0


def cmd_asymptotic(args):
    graph = _load_graph(args.file)
    _check_tol(args.tol)
    Ks = _parse_list(args.k, int, "K")
    if not Ks:
        raise UsageError("--k list must be non-empty")
    if min(Ks) < 2:
        raise UsageError("--k values must be at least 2")
    if len(set(Ks)) != len(Ks):
        raise UsageError("--k values must be distinct")
    z = _parse_list(args.z, float, "z") if args.z else [1.0] + [0.0] * (graph.d - 1)
    if len(z) != graph.d or not all(map(math.isfinite, z)):
        raise UsageError(f"--z needs {graph.d} finite numbers for d={graph.d}")
    table = asymptotic.convergence_study(graph, z, sorted(Ks), tol=args.tol,
                                         convention=args.convention)
    rows = table.to_rows()
    human = [f"{args.file}: window study, z={list(table.direction)}, "
             f"f_hom={table.cell_value!r} ({args.convention})"]
    human += [f"  K={r['K']:4d}  f0K={r['f0K']!r}  gap={r['gap']!r}  "
              f"{r['seconds']:.3f}s" for r in rows]
    human.append(f"  fitted gap exponent: {table.rate_exponent!r}")
    out = {
        "config": {"command": "asymptotic", "input": args.file, "K": sorted(Ks),
                   "z": list(map(float, z)), "convention": args.convention,
                   "tolerance": args.tol},
        "f_hom": table.cell_value,
        "rows": rows,
        "rate_exponent": None if math.isnan(table.rate_exponent)
                         else table.rate_exponent,
        "csv_header": ["K", "f0K", "gap", "seconds"],
        "csv_rows": [[r["K"], repr(r["f0K"]), repr(r["gap"]), f"{r['seconds']:.6f}"]
                     for r in rows],
        "human": human,
    }
    return out, 0


def cmd_inequalities(args):
    graph = _load_graph(args.file)
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    widths = _parse_list(args.widths, int, "width")
    two = coarse.check_two_connectedness(graph, trials=args.trials, seed=args.seed)
    pw = coarse.check_poincare_wirtinger(graph, trials=args.trials, seed=args.seed)
    try:
        poincare = coarse.check_poincare(graph, widths)
    except ValueError as exc:
        raise UsageError(f"--widths: {exc}") from exc
    ratios = [b.c_empirical / a.c_empirical
              for a, b in zip(poincare, poincare[1:])]
    ok = two.holds and pw.holds
    human = [f"{args.file}: inequality suites (trials={args.trials}, seed={args.seed})"]
    for rep in (two, pw):
        human.append(f"  [{'ok' if rep.holds else 'FAIL'}] {rep.name}: "
                     f"C={rep.constant_used!r} worst_ratio={rep.worst_ratio!r} "
                     f"({rep.witness})")
    for rep in poincare:
        human.append(f"  poincare width={rep.width_cells}: C_emp={rep.c_empirical!r} "
                     f"C_sharp={rep.c_sharp!r} c0={rep.c0!r}")
    for (a, b), ratio in zip(zip(poincare, poincare[1:]), ratios):
        human.append(f"  doubling {a.width_cells}->{b.width_cells}: "
                     f"constant ratio {ratio!r} (diam^2 would be "
                     f"{(b.diameter / a.diameter) ** 2:g})")
    out = {
        "config": {"command": "inequalities", "input": args.file,
                   "trials": args.trials, "seed": args.seed, "widths": widths},
        "two_connectedness": two.to_dict(),
        "poincare_wirtinger": pw.to_dict(),
        "poincare": [r.to_dict() for r in poincare],
        "doubling_ratios": ratios,
        "human": human,
    }
    return out, 0 if ok else _CHECK_FAILED


def cmd_bvp(args):
    graph = _load_graph(args.file)
    omega_vals = _parse_list(args.omega, _parse_fraction, "omega")
    if len(omega_vals) != 2 * graph.d:
        raise UsageError(f"--omega needs {2 * graph.d} numbers for d={graph.d}")
    omega = tuple((omega_vals[2 * m], omega_vals[2 * m + 1]) for m in range(graph.d))
    eps_list = _parse_list(args.eps, _parse_fraction, "eps")
    if not eps_list or min(eps_list) <= 0:
        raise UsageError("--eps must list positive rationals")
    phi = parse_datum(args.phi, graph.d)
    try:
        result = bvp.epsilon_convergence_study(graph, omega, phi,
                                               sorted(eps_list, reverse=True),
                                               r=args.r)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rows = [r.to_dict() for r in result.rows]
    human = [f"{args.file}: Dirichlet study, omega={args.omega}, phi={args.phi}, "
             f"r={args.r or graph.T}",
             f"  continuum minimum = {result.continuum.energy!r} "
             f"(+- {result.continuum.error_estimate:g})"]
    human += [f"  eps={r['eps']:>6}: discrete={r['discrete_energy']!r} "
              f"l2_error={r['l2_error']!r}  {r['seconds']:.3f}s" for r in rows]
    out = {
        "config": {"command": "bvp", "input": args.file, "omega": args.omega,
                   "phi": args.phi, "eps": [str(e) for e in eps_list], "r": args.r},
        "tensor": _tensor_dict(result.tensor),
        "continuum_energy": result.continuum.energy,
        "continuum_error_estimate": result.continuum.error_estimate,
        "rows": rows,
        "hypothesis_norms": [{"l2": a, "grad": b} for a, b in result.norms],
        "csv_header": ["eps", "discrete_energy", "continuum_energy", "l2_error",
                       "seconds"],
        "csv_rows": [[r["eps"], repr(r["discrete_energy"]),
                      repr(r["continuum_energy"]), repr(r["l2_error"]),
                      f"{r['seconds']:.6f}"] for r in rows],
        "human": human,
    }
    return out, 0


def cmd_examples(args):
    graphs = lgf.builtin_examples()
    rows = []
    human = ["bundled examples:"]
    for name, g in graphs.items():
        rep = validate(g)
        rows.append({"name": name, "d": g.d, "k": g.k, "T": g.T, "M": g.M,
                     "nodes": g.n_cell, "orbits": len(g.w), "valid": rep.ok})
        human.append(f"  {name}: d={g.d} k={g.k} T={g.T} M={g.M} "
                     f"nodes={g.n_cell} orbits={len(g.w)} valid={rep.ok}")
    if args.export:
        import os
        os.makedirs(args.export, exist_ok=True)
        for name in graphs:
            path = os.path.join(args.export, f"{name}.lgf")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(lgf.builtin_example_text(name))
        human.append(f"  exported to {args.export}/")
    out = {
        "config": {"command": "examples", "export": args.export},
        "examples": rows,
        "human": human,
    }
    return out, 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lattice-homog",
        description="Homogenized energy densities of periodic lattice graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, file=True):
        if file:
            p.add_argument("file", help="input .lgf graph file")
        p.add_argument("--format", choices=("human", "json", "csv"),
                       default="human", help="output format")

    p = sub.add_parser("validate", help="check the standing assumptions")
    common(p)

    p = sub.add_parser("cell", help="solve the periodic cell problem")
    common(p)
    p.add_argument("--convention", choices=("double", "single"), default="double")
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("asymptotic", help="finite-window convergence study")
    common(p)
    p.add_argument("--k", default="2,4,8,16", help="comma-separated window sizes")
    p.add_argument("--z", default="", help="direction vector, e.g. 1 or 1,0")
    p.add_argument("--convention", choices=("double", "single"), default="double")
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("inequalities", help="coarse-graining inequality suites")
    common(p)
    p.add_argument("--trials", type=int, default=200,
                   help="checked (at least 1) but unused: the ratios are exact")
    p.add_argument("--seed", type=int, default=7,
                   help="checked (non-negative) but unused: no field is drawn")
    p.add_argument("--widths", default="32,64",
                   help="domain widths (cells) for the Poincare scaling check")

    p = sub.add_parser("bvp", help="Dirichlet refinement study")
    common(p)
    p.add_argument("--omega", required=True, help="box as a,b per axis, e.g. 0,1")
    p.add_argument("--phi", required=True, help="boundary datum, e.g. 'x' or 'x*x'")
    p.add_argument("--eps", default="1/4,1/8,1/16", help="comma-separated rationals")
    p.add_argument("--r", type=int, default=0, help="boundary band width (0 -> T)")

    p = sub.add_parser("examples", help="list or export the bundled fixtures")
    common(p, file=False)
    p.add_argument("--export", default="", help="directory to write .lgf files")

    return parser


@functools.cache
def _parser():
    """build_parser() once per process: parse_args leaves a parser as it was."""
    return build_parser()


def run(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return _USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        # looked up at each run, not bound into the cached parser, so a
        # cmd_* rebound on the module (a tracer, a test) is the one called
        report, code = globals()[f"cmd_{args.command}"](args)
        data = emit(report, args.format)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except LatticeError as exc:
        if args.format == "json":
            payload = {"schema": SCHEMA, "error": {"type": type(exc).__name__,
                                                   "message": str(exc)}}
            sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        else:
            print(f"error: {exc}", file=sys.stderr)
        return _CHECK_FAILED
    sys.stdout.write(data.decode())
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
