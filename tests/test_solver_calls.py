"""The package has one sparse direct solve, one shift-invert eigensolve, one
dense coarse factorization, one conjugate-gradient loop, one pinned-box
problem and two dense inverses.

The window and the Dirichlet problems, and the grounded Laplacian solves
of the local inequality harnesses (graph.grounded_solve), are solved by
graph.pinned_solve, so a change of solver or ordering is made in one
function.  It has two
routes: SuperLU (spsolve) for d = 1 and for small systems, and conjugate
gradients preconditioned by a smoothed-aggregation V-cycle
(graph._Multigrid) for large systems in d >= 2, whose coarsest level is
solved by dense Cholesky (cho_factor / cho_solve), in graph.py only.  The
window, Dirichlet and Poincare problems are each a graph.PinnedProblem,
which assembles its reduced system (`reduced_system`) and solves it, so
nothing outside graph.py calls `laplacian`, `reduced_system` or
`pinned_solve` as a function of the graph module.  The continuum grid
(bvp._fd_solve) applies its stencil matrix-free and solves it by
sine-preconditioned conjugate gradients, so it reaches no sparse solver.
Every conjugate-gradient solve (the multigrid route, the continuum grid
and the cell corrector, cell.solve_corrector) runs the one loop
graph._preconditioned_cg, and no other function uses it.
The sharp Poincare constant (coarse.check_poincare) is the lowest
eigenvalue of A_ff by eigsh in shift-invert mode (sigma = 0), which
factorizes A_ff by SuperLU inside scipy, with scipy's own ordering: a
second sparse direct factorization, allowed in that function only.
The source is read with ast, and any use of these names by name elsewhere
(a call, a reference or an import) fails.
A dense inverse is taken only by the dense oracle (pinv) and by the
periodic operator's exact inverse for small cells (inv), so the oracle
stays a route independent of the solver it checks.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lattice_homog"
SOLVERS = {"spsolve", "splu", "spilu", "factorized"}
EIGENSOLVERS = {"eigsh", "eigs"}        # ARPACK; shift-invert factorizes
DENSE_FACTORS = {"cho_factor", "cho_solve"}
PINNED = {"laplacian", "pinned_solve", "reduced_system"}
INVERSES = {"inv", "pinv"}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _uses(names, attribute):
    """(module.scope, name) for each use of a name in `names` in src/: a bare
    name, an import, or an attribute for which `attribute(node)` holds."""
    uses = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            name = None
            if isinstance(child, ast.Attribute) and attribute(child):
                name = child.attr
            elif isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.alias):
                name = child.name.rsplit(".", 1)[-1]
            if name in names:
                uses.append((scope, name))
            visit(child, f"{scope}.{child.name}" if isinstance(child, SCOPES) else scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return uses


def test_one_sparse_solve():
    assert _uses(SOLVERS, lambda node: True) == [("graph.pinned_solve", "spsolve")]


def test_one_shift_invert_eigensolve():
    assert _uses(EIGENSOLVERS, lambda node: True) == [("coarse.check_poincare", "eigsh")]


def test_dense_coarse_factorization_only_in_graph():
    assert sorted(_uses(DENSE_FACTORS, lambda node: True)) == [
        ("graph._Multigrid.__call__", "cho_solve"), ("graph._Multigrid.__init__", "cho_factor")]


def test_one_conjugate_gradient_loop():
    name = "_preconditioned_cg"
    assert sorted(_uses({name}, lambda node: True)) == [
        ("bvp", name), ("bvp._fd_solve", name), ("cell", name),
        ("cell.solve_corrector", name), ("graph._multigrid_solve", name)]


def test_one_pinned_problem():
    # a method call such as problem.reduced_system() is not a use; graph.laplacian(...) is
    uses = _uses(PINNED, lambda node: isinstance(node.value, ast.Name)
                 and node.value.id == "graph")
    assert [use for use in uses if use[0].split(".")[0] != "graph"] == []


def test_two_dense_inverses():
    # bvp's local variable `inv` (the integer 1 / eps) is not a dense inverse
    local = {"bvp.DirichletProblem.__post_init__", "bvp.build_system"}
    assert [use for use in _uses(INVERSES, lambda node: True) if use[0] not in local] == [
        ("graph.PeriodicOperator.exact_inverse", "inv"),
        ("oracle.brute_force_cell_oracle", "pinv")]
