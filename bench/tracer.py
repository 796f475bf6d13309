"""Span recorder that times the library's public functions from the outside.

`Tracer.install(package)` replaces every binding of every public function
of the package's modules with a wrapper that records a span.  Every binding
matters because `from .x import y` copies a name into another module:
`validate` is bound in `graph`, `cli` and the package, `hypothesis_norms` in
`bvp` and `coarse`.  `scipy.sparse.linalg.spsolve` and `scipy.linalg.eigh`
are wrapped too, as `linalg.spsolve` and `linalg.eigh`.  `uninstall()` puts
the original bindings back, so untraced passes run the library untouched.

A span is (name, start, end, parent, pass id).  Spans stay in memory until
`dump` writes them out.  A span's self time is its duration minus the
durations of its child spans, so the self times of one pass add up to the
time the pass spent inside wrapped calls.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
import types

import scipy.linalg
import scipy.sparse.linalg

EXTERNAL = ((scipy.sparse.linalg, "spsolve", "linalg.spsolve"),
            (scipy.linalg, "eigh", "linalg.eigh"))


def _sizes(name, result):
    """Work sizes read from a wrapped call's return value.

    Returns ((counter, value), ...); counters add up over a pass, except
    `linalg.eigh.order`, which keeps the largest value.
    """
    if name == "cell.assemble_quotient_system":
        return (("cell.quotient_nodes", result[0].shape[0]),)
    if name == "graph.connectedness_certificate":
        return (("graph.witness_paths", len(result.witnesses)),)
    if name == "graph.instantiate_window":
        return (("graph.window_vertices", len(result.vertices)),
                ("graph.window_edges", len(result.edges) + len(result.ghost_edges)))
    if name == "asymptotic.build_window_problem":
        return (("asymptotic.free_dofs", int((~result.clamped).sum())),)
    if name == "bvp.build_system":
        return (("bvp.free_dofs", int((~result.constrained).sum())),)
    if name == "linalg.eigh":
        return (("linalg.eigh.order", len(result[0]) if isinstance(result, tuple)
                 else len(result)),)
    if name == "linalg.spsolve":
        return (("linalg.spsolve.dofs", len(result)),)
    return ()


MAX_COUNTERS = {"linalg.eigh.order"}


class Tracer:
    def __init__(self):
        self.spans = []         # [name, start, end, parent index or -1, pass id]
        self.counters = {}      # pass id -> {counter: value}
        self.graphs = {}        # pass id -> ids of graphs given to compute_path_constants
        self.threads = {}       # pass id -> most Python threads seen at a span end
        self.pass_id = 0
        self.found = set()
        self._local = threading.local()
        self._bindings = []     # (module, attribute, original)

    # -- wrapping -----------------------------------------------------------

    def install(self, package):
        """Wrap every binding of every public function; returns the names found."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        names = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, val in vars(mod).items():
                if (isinstance(val, types.FunctionType) and not attr.startswith("_")
                        and val.__module__ == mod.__name__ and val.__name__ == attr):
                    names[id(val)] = (f"{short}.{attr}", val)
        for mod, attr, name in EXTERNAL:
            if hasattr(mod, attr):
                names[id(getattr(mod, attr))] = (name, getattr(mod, attr))
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in names.items()}
        for mod in modules + [m for m, _, _ in EXTERNAL]:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and val is names[id(val)][1]:
                    self._bindings.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])
        self.found = {name for name, _ in names.values()}
        return self.found

    def uninstall(self):
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings = []

    def _wrap(self, name, fn):
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.pass_id]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                self._after(name, args, span[4])
            self._count(name, result, span[4])
            return result

        return wrapper

    def _after(self, name, args, pass_id):
        n = threading.active_count()
        if n > self.threads.get(pass_id, 0):
            self.threads[pass_id] = n
        if name == "coarse.compute_path_constants" and args:
            self.graphs.setdefault(pass_id, set()).add(id(args[0]))

    def _count(self, name, result, pass_id):
        try:
            sizes = _sizes(name, result)
        except (AttributeError, IndexError, TypeError):
            return  # the return value no longer carries this size: report 0
        if not sizes:
            return
        counters = self.counters.setdefault(pass_id, {})
        for key, value in sizes:
            if key in MAX_COUNTERS:
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value

    # -- analysis -----------------------------------------------------------

    def table(self, pass_id):
        """{name: {"calls", "self_s", "total_s"}} for the spans of one pass."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, pid) in enumerate(self.spans):
            if pid != pass_id:
                continue
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += end - start - child[i]
            row["total_s"] += end - start
        return out

    def span_count(self, pass_id):
        return sum(1 for s in self.spans if s[4] == pass_id)

    def dump(self, path, extra):
        """Write every span, plus `extra`, as one JSON document."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(extra)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "pass"]
        doc["names"] = names
        doc["spans"] = [[index[n], round(s - t0, 9), round(e - t0, 9), p, pid]
                        for n, s, e, p, pid in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
