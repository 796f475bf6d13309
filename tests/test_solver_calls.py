"""The package has one sparse direct solve, one band solve, one shift-invert
eigensolve, one dense coarse factorization, one conjugate-gradient loop,
one pinned-box problem and two dense inverses, and one module of solves.

Every solve and every route choice is in solve.py: the route constants are
assigned there and nowhere else.  The window and the Dirichlet problems
are solved by solve.pinned_solve, and the grounded Laplacian solves of the
local inequality harnesses (graph.grounded_solve) by solve.columns_solve,
so a change of solver or ordering is made in one function.  Both take the
free block as its pairs (solve.FreeBlock), which builds its CSR only when
a route asks for it.  One function (solve._pinned_route) chooses among
three routes for a PinnedProblem and returns the function that runs it.
Banded Cholesky in position order (solveh_banded, in solve._Band.solve,
whose band is filled straight from the pairs; only the router and
columns_solve build a _Band) solves them when d = 1, when they are small,
and when their couplings spread too widely for the sine route and the band
fits its memory cap.  Conjugate gradients (solve._cg_solve) preconditioned
by the inverse of the system's mean-weight reference by dense sine
transforms (solve._SineReference) solve the large d >= 2 systems whose
free vertices fill their box evenly, whose reference is positive definite
and whose couplings and sides are within the route's caps.  The same CG
solve preconditioned by a smoothed-aggregation V-cycle (solve._Multigrid),
whose coarsest level is solved by dense Cholesky (cho_factor / cho_solve),
in solve.py only, solves the other large ones.  The grounded solves take
the band too, and SuperLU (spsolve, in solve.columns_solve only) when
their band work is above the crossover.  No Laplacian is sliced by fancy
indexing (L[free][:, free]): every free block comes from one pass over the
edges.  The window, Dirichlet and Poincare problems
are each a graph.PinnedProblem, which assembles its reduced system
(`reduced_system`) and solves it, so nothing outside graph.py calls
`laplacian`, `reduced_system` or `pinned_solve` as a function of the graph
module.  The continuum grid (bvp._fd_solve) applies its stencil
matrix-free and solves it by sine-preconditioned conjugate gradients,
with the sine route's preconditioner (solve._sine_solve), so it reaches no
sparse solver.  Every conjugate-gradient solve (the sine and multigrid
routes, the continuum grid and the cell corrector, cell.solve_corrector)
runs the one loop solve._preconditioned_cg, and no other function uses
it; the corrector's energy stop is a keyword of that loop, not a second
loop; the corrector's regime is chosen by solve._corrector_route.
The sharp Poincare constant (coarse.check_poincare) is the lowest
eigenvalue of A_ff by eigsh in shift-invert mode (sigma = 0), which
factorizes A_ff by SuperLU inside scipy, with scipy's own ordering: a
second sparse direct factorization, allowed in that function only.
The source is read with ast, and any use of these names by name elsewhere
(a call, a reference or an import) fails.
A dense inverse is taken only by the dense oracle (pinv) and by the
periodic operator's exact inverse for small cells (inv), so the oracle
stays a route independent of the solver it checks.

scipy's sparse solvers, its dense factorizations and its graph searches
(scipy.sparse.linalg, scipy.linalg, scipy.sparse.csgraph) are imported by
the functions that call them, never at the top of a module: the tensor of
a cell on the FFT route runs none of them, and a fresh interpreter that
imports the package and computes that tensor does not load them.  The sine
transforms are dense products, so a fresh interpreter that solves a window
on the sine route does not load scipy.fft.  No module of the package
imports a name it never uses, which catches an import that a move leaves
behind.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lattice_homog"
SOLVERS = {"spsolve", "splu", "spilu", "factorized"}
EIGENSOLVERS = {"eigsh", "eigs"}        # ARPACK; shift-invert factorizes
DENSE_FACTORS = {"cho_factor", "cho_solve"}
PINNED = {"laplacian", "pinned_solve", "reduced_system"}
INVERSES = {"inv", "pinv"}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
DEFERRED = ("scipy.sparse.linalg", "scipy.linalg", "scipy.sparse.csgraph")


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
    # the grounded fallback of the harness solves
    assert _uses(SOLVERS, lambda node: True) == [("solve.columns_solve", "spsolve")]


def test_one_band_solve():
    # solveh_banded only in the band filled from the pairs
    assert _uses({"solveh_banded"}, lambda node: True) == [("solve._Band.solve", "solveh_banded")]
    assert sorted(_uses({"_Band"}, lambda node: True)) == [
        ("solve._pinned_route", "_Band"), ("solve.columns_solve", "_Band")]


def _fancy_slices():
    """(module.scope, source) of each row selection followed by a column
    selection, both by an index array, such as L[free][:, free], in src/."""
    found = []

    def by_array(index):
        return not isinstance(index, (ast.Constant, ast.Slice, ast.Tuple))

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Subscript) and isinstance(child.value, ast.Subscript)
                    and by_array(child.value.slice) and isinstance(child.slice, ast.Tuple)
                    and len(child.slice.elts) == 2 and isinstance(child.slice.elts[0], ast.Slice)
                    and by_array(child.slice.elts[1])):
                found.append((scope, ast.unparse(child)))
            visit(child, f"{scope}.{child.name}" if isinstance(child, SCOPES) else scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_no_laplacian_is_sliced():
    assert _fancy_slices() == []


def test_one_shift_invert_eigensolve():
    assert _uses(EIGENSOLVERS, lambda node: True) == [("coarse.check_poincare", "eigsh")]


def test_dense_coarse_factorization_only_in_solve():
    assert sorted(_uses(DENSE_FACTORS, lambda node: True)) == [
        ("solve._Multigrid.__call__", "cho_solve"), ("solve._Multigrid.__init__", "cho_factor")]


def test_one_conjugate_gradient_loop():
    name = "_preconditioned_cg"
    assert sorted(_uses({name}, lambda node: True)) == [
        ("bvp", name), ("bvp._fd_solve", name), ("cell", name),
        ("cell.solve_corrector", name), ("solve._cg_solve", name)]


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


def test_route_constants_only_in_solve():
    named = {"DENSE_MAX_NODES", "PCG_MIN_NODES", "_BAND_MAX_BYTES", "_BAND_MAX_WORK", "_CG_TOL"}
    found = sorted({(path.stem, node.id) for path in SRC.glob("*.py")
                    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                    and (node.id in named or node.id.startswith(("_MG_", "_SINE_MAX_")))})
    assert found and {module for module, _ in found} == {"solve"}, found


def test_no_unused_imports():
    # __init__.py imports to re-export; `from __future__` binds no name
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.stem, bound) for node in ast.walk(tree)
                   if isinstance(node, ast.Import)
                   or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                   for alias in node.names
                   if (bound := alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []


def _module_level_imports(tree):
    """Full names of what the statements outside any function or class import."""
    names = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names.extend(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.module:
                names.extend(f"{child.module}.{alias.name}" for alias in child.names)
            elif not isinstance(child, SCOPES):
                visit(child)

    visit(tree)
    return names


def test_solver_modules_are_imported_where_they_are_called():
    found = [(path.stem, name) for path in sorted(SRC.glob("*.py"))
             for name in _module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
             if any(name == module or name.startswith(module + ".") for module in DEFERRED)]
    assert found == []


_FFT_ROUTE = """
import sys
import numpy as np
import lattice_homog
import lattice_homog.cli
from lattice_homog import f_hom, graph_from_edges, homogenized_tensor, parse, validate
from lattice_homog.lgf import builtin_example_text

DEFERRED = {deferred!r}


def loaded():
    return [name for name in DEFERRED if name in sys.modules]


parse(builtin_example_text("ex1"))
assert loaded() == [], loaded()
rng, T = np.random.default_rng(5), 16
edges = []
for x in range(T):
    for y in range(T):
        edges.append(((x, y), ((x + 1) % T, y), (int(x == T - 1), 0), float(rng.uniform(0.5, 2))))
        edges.append(((x, y), (x, (y + 1) % T), (0, int(y == T - 1)), float(rng.uniform(0.5, 2))))
cell = graph_from_edges(2, 0, T, [(x, y) for x in range(T) for y in range(T)], edges)
homogenized_tensor(cell)
f_hom(cell, [1.0, 1.0])
assert cell.operator.preconditioner is not None
assert loaded() == [], loaded()
assert validate(cell).ok
assert "scipy.sparse.csgraph" in sys.modules
"""


def test_cell_tensor_on_the_fft_route_loads_no_solver_module():
    # a fresh interpreter: this one has loaded the three modules already
    src = str(SRC.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _FFT_ROUTE.format(deferred=DEFERRED)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr


_SINE_ROUTE = """
import logging
import sys
import numpy as np
sys.path.insert(0, {tests!r})
from conftest import random_square_lattice
from lattice_homog.asymptotic import build_window_problem

lines = []
handler = logging.Handler()
handler.emit = lambda record: lines.append(record.getMessage())
log = logging.getLogger("lattice_homog")
log.addHandler(handler)
log.setLevel(logging.DEBUG)
problem = build_window_problem(random_square_lattice(4, np.random.default_rng(20240811)),
                               [1.0, 1.0], 32)
problem.solve()
assert [line.split(":")[0] for line in lines] == ["sine"], lines
assert "scipy.fft" not in sys.modules
"""


def test_sine_route_loads_no_fft_module():
    # a fresh interpreter: this one may have loaded scipy.fft already
    src = str(SRC.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = _SINE_ROUTE.format(tests=str(Path(__file__).resolve().parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
