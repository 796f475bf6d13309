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
"""

from __future__ import annotations

import math
import re
from importlib import resources

from .graph import CellNode, EdgeOrbit, LatticeGraph

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
    vals = []
    for p in parts:
        if not _INT.match(p):
            raise ParseError(line_no, col, "Syntax", f"{what}: bad integer {p!r}")
        vals.append(int(p))
    return tuple(vals)


def parse(text):
    """Parse LGF text into a LatticeGraph; raises ParseError on bad input.

    The returned graph satisfies the representation invariants (declared
    endpoints, positive weights, no zero-displacement orbit, nodes in range);
    connectedness and the range bound are left to graph-core validation.
    """
    d = k = T = None
    header_seen = 0
    nodes = {}
    node_lines = {}
    orbits = {}
    orbit_lines = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        stripped = line.strip()
        col = line.index(stripped[0]) + 1
        fields = stripped.split(None, 1)
        head, rest = fields[0], fields[1] if len(fields) > 1 else ""

        if head in ("d", "k", "T"):
            expected = ("d", "k", "T")[header_seen] if header_seen < 3 else None
            if head != expected:
                raise ParseError(line_no, col, "MissingHeader",
                                 f"header {head!r} out of order (expected {expected!r})")
            if not _INT.match(rest.strip() or "x"):
                raise ParseError(line_no, col, "Syntax", f"bad header value {rest!r}")
            val = int(rest)
            if head == "d":
                if val < 1:
                    raise ParseError(line_no, col, "RangeViolation", "d must be >= 1")
                d = val
            elif head == "k":
                if val < 0:
                    raise ParseError(line_no, col, "RangeViolation", "k must be >= 0")
                k = val
            else:
                if val < 1:
                    raise ParseError(line_no, col, "RangeViolation", "T must be >= 1")
                T = val
            header_seen += 1
            continue

        if header_seen < 3:
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
            node = CellNode(dpos, kpos)
            if node in nodes:
                raise ParseError(line_no, col, "DuplicateNode",
                                 f"node {node} already declared on line {node_lines[node]}")
            nodes[node] = node
            node_lines[node] = line_no
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
            na = CellNode(a[:d], a[d:])
            nb = CellNode(b[:d], b[d:])
            for n, grp in ((na, 1), (nb, 2)):
                if n not in nodes:
                    raise ParseError(line_no, col + m.start(grp), "Syntax",
                                     f"edge references undeclared node {n}")
            orb = EdgeOrbit(na, nb, offset, weight).canonical()
            dd, dk = orb.displacement(T)
            if not any(dd + dk):
                raise ParseError(line_no, col, "RangeViolation",
                                 "zero-displacement edge (self loop)")
            key = (orb.u, orb.v, orb.offset)
            if key in orbits:
                if orbits[key].weight != weight:
                    raise ParseError(line_no, col, "AsymmetricWeight",
                                     f"orbit {key} re-declared with weight {weight} "
                                     f"(was {orbits[key].weight} on line {orbit_lines[key]})")
                raise ParseError(line_no, col, "DuplicateOrbit",
                                 f"orbit {key} already declared on line {orbit_lines[key]}")
            orbits[key] = orb
            orbit_lines[key] = line_no
            continue

        raise ParseError(line_no, col, "Syntax", f"unknown directive {head!r}")

    if header_seen < 3:
        raise ParseError(max(1, text.count("\n") + 1), 1, "MissingHeader",
                         "input ends before the d/k/T header is complete")
    return LatticeGraph(d, k, T, list(nodes), list(orbits.values()))


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
