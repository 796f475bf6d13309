"""The package has one sparse direct solve: graph.pinned_solve.

The window, the Dirichlet problems and the continuum grid all reach SuperLU
through it, so a change of solver or ordering is made in one function.  The
source is read with ast, and any use of a scipy sparse solver or factorization
by name elsewhere (a call, a reference or an import) fails this test.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lattice_homog"
SOLVERS = {"spsolve", "splu", "spilu", "factorized"}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _solver_uses():
    """(module.scope, name) for each use of a solver name in src/."""
    uses = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            name = None
            if isinstance(child, ast.Attribute):
                name = child.attr
            elif isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.alias):
                name = child.name.rsplit(".", 1)[-1]
            if name in SOLVERS:
                uses.append((scope, name))
            visit(child, f"{scope}.{child.name}" if isinstance(child, SCOPES) else scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return uses


def test_one_sparse_solve():
    assert _solver_uses() == [("graph.pinned_solve", "spsolve")]
