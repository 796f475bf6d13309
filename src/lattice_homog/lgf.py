"""LGF: a line-oriented text format for periodic lattice graphs.

Grammar (UTF-8, one statement per line, `#` starts a comment):

    d <int>           header, required first
    k <int>           header, required second
    T <int>           header, required third
    node <c1> ... <cd+k>
    edge (<coords>) (<coords>)[<offset>] <weight>

The offset is a run of signed integers like `+1` or `-2+0`, one per periodic
axis, applied as a cell translation to the second endpoint; omitted means
zero.  Weights are positive decimals.  Files use the extension `.lgf`.

`parse` checks each line where it stands and leaves orienting the edges and
finding repeated orbits to graph_from_edges; the earliest faulty line is
the one reported.
"""

from __future__ import annotations

import math
import re
from importlib import resources

from .graph import graph_from_edges

KINDS = ("Syntax", "RangeViolation", "DuplicateNode", "DuplicateOrbit",
         "AsymmetricWeight", "MissingHeader")


class ParseError(Exception):
    """Parse failure with a 1-based line/column position and a kind tag."""

    def __init__(self, line, column, kind, message):
        assert kind in KINDS
        super().__init__(f"line {line}, col {column}: [{kind}] {message}")
        self.line = line
        self.column = column
        self.kind = kind
        self.message = message


_INT = re.compile(r"[+-]?\d+$")
_EDGE = re.compile(r"edge\s+\(([^()]*)\)\s+\(([^()]*)\)((?:[+-]\d+)*)\s+(\S+)\s*$")
_OFFSET = re.compile(r"[+-]\d+")


def _ints(text, line_no, col, what, count):
    parts = text.split()
    if len(parts) != count:
        raise ParseError(line_no, col, "Syntax",
                         f"{what}: expected {count} integers, got {len(parts)}")
    for p in parts:
        if not _INT.match(p):
            raise ParseError(line_no, col, "Syntax", f"{what}: bad integer {p!r}")
    return tuple(map(int, parts))


def parse(text):
    """Parse LGF text into a LatticeGraph; raises ParseError on bad input.

    Each line is checked where it stands (headers, syntax, coordinate
    ranges, repeated nodes, declared endpoints, weights, self loops); the
    edges then go as plain tuples to graph_from_edges, whose canonical form
    orients them and finds repeated orbits (DuplicateOrbit, AsymmetricWeight).
    Of several faults, the earliest line's is raised.  Connectedness and the
    range bound are left to graph-core validation.
    """
    header = []                 # the values of d, k and T
    nodes = {}                  # coordinates -> line
    edges, where = [], []       # (a, b, offset, weight) and (line, column) per edge
    try:
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0]
            if not line.strip():
                continue
            stripped = line.strip()
            col = line.index(stripped[0]) + 1
            fields = stripped.split(None, 1)
            head, rest = fields[0], fields[1] if len(fields) > 1 else ""

            if head in ("d", "k", "T"):
                expected = "dkT"[len(header)] if len(header) < 3 else None
                if head != expected:
                    raise ParseError(line_no, col, "MissingHeader",
                                     f"header {head!r} out of order (expected {expected!r})")
                if not _INT.match(rest.strip() or "x"):
                    raise ParseError(line_no, col, "Syntax", f"bad header value {rest!r}")
                val, least = int(rest), int(head != "k")
                if val < least:
                    raise ParseError(line_no, col, "RangeViolation", f"{head} must be >= {least}")
                header.append(val)
                if len(header) == 3:
                    d, k, T = header
                continue

            if len(header) < 3:
                raise ParseError(line_no, col, "MissingHeader",
                                 f"{head!r} before the d/k/T header lines")

            if head == "node":
                coords = _ints(rest, line_no, col + len("node "), "node", d + k)
                dpos, kpos = coords[:d], coords[d:]
                if any(not (0 <= c < T) for c in dpos):
                    raise ParseError(line_no, col, "RangeViolation",
                                     f"node d-coordinates {dpos} outside [0, {T})")
                if any(c < 0 for c in kpos):
                    raise ParseError(line_no, col, "RangeViolation",
                                     f"node k-coordinates {kpos} negative")
                if coords in nodes:
                    raise ParseError(line_no, col, "DuplicateNode", f"node {_text(coords)} "
                                     f"already declared on line {nodes[coords]}")
                nodes[coords] = line_no
                continue

            if head == "edge":
                m = _EDGE.match(stripped)
                if not m:
                    raise ParseError(line_no, col, "Syntax", "malformed edge line")
                a = _ints(m.group(1), line_no, col + m.start(1), "endpoint", d + k)
                b = _ints(m.group(2), line_no, col + m.start(2), "endpoint", d + k)
                offs = _OFFSET.findall(m.group(3))
                if m.group(3) and len(offs) != d:
                    raise ParseError(line_no, col + m.start(3), "Syntax",
                                     f"offset needs {d} signed integers, got {len(offs)}")
                offset = tuple(int(o) for o in offs) if offs else (0,) * d
                try:
                    weight = float(m.group(4))
                except ValueError:
                    raise ParseError(line_no, col + m.start(4), "Syntax",
                                     f"bad weight {m.group(4)!r}") from None
                if not (weight > 0 and math.isfinite(weight)):
                    raise ParseError(line_no, col + m.start(4), "RangeViolation",
                                     f"weight must be a positive finite number, got {m.group(4)}")
                for end, grp in ((a, 1), (b, 2)):
                    if end not in nodes:
                        raise ParseError(line_no, col + m.start(grp), "Syntax",
                                         f"edge references undeclared node {_text(end)}")
                # nodes lie in [0, T), so only a zero offset can close a loop
                if a == b and not any(offset):
                    raise ParseError(line_no, col, "RangeViolation",
                                     "zero-displacement edge (self loop)")
                edges.append((a, b, offset, weight))
                where.append((line_no, col))
                continue

            raise ParseError(line_no, col, "Syntax", f"unknown directive {head!r}")
    except ParseError:
        if edges:
            _build(d, k, T, nodes, edges, where)    # a repeat above the fault comes first
        raise

    if len(header) < 3:
        raise ParseError(max(1, text.count("\n") + 1), 1, "MissingHeader",
                         "input ends before the d/k/T header is complete")
    return _build(d, k, T, nodes, edges, where)


def _text(coords):
    return "(" + " ".join(map(str, coords)) + ")"


def _build(d, k, T, nodes, edges, where):
    """The graph of the parsed lines, or the ParseError of the earliest
    repeated orbit, at the line of its repeat."""
    try:
        return graph_from_edges(d, k, T, nodes, edges)
    except ValueError as exc:               # only a repeated orbit is left to find
        first, repeat = exc.positions
        (line_no, col), was = where[repeat], where[first][0]
        orbit = str(exc).removeprefix("duplicate ")
        weight, before = edges[repeat][3], edges[first][3]
        if weight != before:
            raise ParseError(line_no, col, "AsymmetricWeight",
                             f"{orbit} re-declared with weight {weight} "
                             f"(was {before} on line {was})") from None
        raise ParseError(line_no, col, "DuplicateOrbit",
                         f"{orbit} already declared on line {was}") from None


def serialize(graph):
    """Canonical LGF text: sorted nodes, canonically oriented sorted orbits."""
    coords = [" ".join(map(str, row)) for row in graph.coords.tolist()]
    out = [f"d {graph.d}", f"k {graph.k}", f"T {graph.T}"] + [f"node {c}" for c in coords]
    for a, b, off, w in zip(graph.u.tolist(), graph.v.tolist(), graph.offset.tolist(),
                            graph.w.tolist()):
        shift = "".join(f"{o:+d}" for o in off) if any(off) else ""
        out.append(f"edge ({coords[a]}) ({coords[b]}){shift} {w!r}")
    return "\n".join(out) + "\n"


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def dump(graph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(graph))


EXAMPLE_NAMES = ("ex1", "ex2", "ex3", "ex4", "ex5", "ex6")


def builtin_example_text(name):
    if name not in EXAMPLE_NAMES:
        raise KeyError(f"unknown example {name!r}; have {EXAMPLE_NAMES}")
    return resources.files(__package__).joinpath(f"fixtures/{name}.lgf").read_text("utf-8")


def builtin_examples():
    """The bundled fixture geometries, freshly parsed."""
    return {name: parse(builtin_example_text(name)) for name in EXAMPLE_NAMES}
