"""The library functions that the benchmark traces by name still exist.

bench/worker.py names every function whose spans it reports as
`<module>.<function>`, in SPAN_METRICS and SETUP_METRICS, and
bench/tracer.py wraps the module-level functions of that name.  A renamed
function would otherwise show only when the benchmark runs.  The names are
read with ast, so the benchmark is not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _assigned(path, name):
    """The value node assigned to module-level `name` in `path`."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"{path.name} assigns no {name}")


def _traced_functions():
    """The `<module>.<function>` names of the library functions the benchmark reports."""
    worker = BENCH / "worker.py"
    spans = ast.literal_eval(_assigned(worker, "SPAN_METRICS"))
    names = {metric.rsplit(".", 1)[0] for metric in spans}
    names |= set(ast.literal_eval(_assigned(worker, "SETUP_METRICS")))
    # functions outside the library, wrapped under an alias: (module, attribute, alias)
    external = {entry.elts[-1].value for entry in _assigned(BENCH / "tracer.py", "EXTERNAL").elts}
    return sorted(names - external)


def test_bench_names_library_functions():
    names = _traced_functions()
    assert {"graph.graph_from_edges", "graph.normalize_period", "lgf.parse"} <= set(names)
    missing = []
    for name in names:
        module_name, function = name.split(".")
        module = importlib.import_module(f"lattice_homog.{module_name}")
        fn = getattr(module, function, None)
        if (function.startswith("_") or not inspect.isfunction(fn)
                or fn.__module__ != module.__name__ or fn.__name__ != function):
            missing.append(name)
    assert not missing, f"traced by bench/ but not a public function: {missing}"
