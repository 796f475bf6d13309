import pytest

from lattice_homog import builtin_examples, parse, serialize, validate
from lattice_homog.lgf import EXAMPLE_NAMES, ParseError, builtin_example_text

MINIMAL_CHAIN = "d 1\nk 0\nT 1\nnode 0\nedge (0) (0)+1 1.0\n"


def test_parse_minimal_chain():
    g = parse(MINIMAL_CHAIN)
    assert (g.d, g.k, g.T, g.n_cell, len(g.orbits)) == (1, 0, 1, 1, 1)


def test_parse_example2(examples):
    g = examples["ex2"]
    assert (g.d, g.k, g.T, g.n_cell) == (1, 1, 1, 2)


def test_builtin_examples_all_valid(examples):
    assert set(examples) == set(EXAMPLE_NAMES)
    for name, g in examples.items():
        assert validate(g).ok, name


def test_builtin_shapes(examples):
    assert (examples["ex4"].n_cell, examples["ex4"].T) == (2, 1)
    assert examples["ex5"].T == 4
    e6 = examples["ex6"]
    assert (e6.d, e6.k, e6.T) == (1, 2, 2)


def test_roundtrip_fixtures():
    for name in EXAMPLE_NAMES:
        g1 = parse(builtin_example_text(name))
        text = serialize(g1)
        g2 = parse(text)
        assert g1 == g2, name
        assert serialize(g2) == text, name


def test_serialize_deterministic(chain):
    assert serialize(chain) == serialize(chain)


def test_serialize_canonicalizes_reversed_orbit():
    text = "d 1\nk 1\nT 1\nnode 0 0\nnode 0 1\nedge (0 1) (0 0)+1 1.0\n"
    out = serialize(parse(text))
    assert "edge (0 0) (0 1)-1 1.0" in out


def test_serialize_weights_roundtrip():
    text = "d 1\nk 0\nT 1\nnode 0\nedge (0) (0)+1 0.1\n"
    g = parse(text)
    assert parse(serialize(g)) == g
    assert g.orbits[0].weight == 0.1


MALFORMED = [
    # (text, kind, line)
    ("k 0\nd 1\nT 1\n", "MissingHeader", 1),
    ("d 1\nk 0\nnode 0\n", "MissingHeader", 3),
    ("d 1\nk 0\nT 1\nnode 0\nedge (0) (0)+1 1.0\n# fin\nbogus 3\n", "Syntax", 7),
    ("d 1\nk 0\nT 1\nnode 0 7\n", "Syntax", 4),
    ("d 1\nk 0\nT 2\nnode 3\n", "RangeViolation", 4),
    ("d 1\nk 1\nT 1\nnode 0 -1\n", "RangeViolation", 4),
    ("d 1\nk 0\nT 1\nnode 0\nnode 0\n", "DuplicateNode", 5),
    ("d 1\nk 0\nT 1\nnode 0\nedge (0) (1)+1 1.0\n", "Syntax", 5),
    ("d 1\nk 0\nT 1\nnode 0\nedge (0) (0)+1 0.0\n", "RangeViolation", 5),
    ("d 1\nk 0\nT 1\nnode 0\nedge (0) (0) 1.0\n", "RangeViolation", 5),
    ("d 1\nk 0\nT 1\nnode 0\nedge (0) (0)+1 1.0\nedge (0) (0)-1 1.0\n",
     "DuplicateOrbit", 6),
    ("d 1\nk 0\nT 1\nnode 0\nedge (0) (0)+1 1.0\nedge (0) (0)-1 2.0\n",
     "AsymmetricWeight", 6),
    ("d 1\nk 0\nT 1\nnode 0\nedge (0) (0)+1 heavy\n", "Syntax", 5),
    # several faults: the earliest faulty line is the one reported
    ("d 1\nk 0\nT 1\nnode 0\nedge (0) (0)+1 1.0\n  edge (0) (0)+1 1.0\nedge (0) 1.0\n",
     "DuplicateOrbit", 6),
    ("d 1\nk 0\nT 1\nnode 0\nedge (0) (0)+1 1.0\nedge (0) (0)+1 0.5\n"
     "edge (0) (1)+1 1.0\n", "AsymmetricWeight", 6),
    ("d 1\nk 0\nT 1\nnode 0\nedge (0) (0)+1 1.0\nedge (0) (0)-1 1.0\n"
     "edge (0) (0)+1 3.0\n", "DuplicateOrbit", 6),
    ("d 1\nk 0\nT 1\nnode 0\nedge (0) (0) 1.0\nedge (0) (0)+1 1.0\n"
     "edge (0) (0)+1 1.0\n", "RangeViolation", 5),
    ("d 1\nk 1\nT 1\nnode 0 0\nnode 0 1\nedge (0 1) (0 0)+1 1.0\n"
     "edge (0 0) (0 1)-1 1.0\n", "DuplicateOrbit", 7),
    ("d 1\nk 0\nT 2\nnode 0\nnode 1\nedge (1) (1)-1 1.0\nedge (0) (1) 1.0\n"
     "edge (1) (1)+1 1.0\n", "DuplicateOrbit", 8),
    ("d 1\nk 0\nT 1\nnode 0\nedge (0) (0)+1 1.0\nedge (0) (0)+1 1.0\nT 1\n",
     "DuplicateOrbit", 6),
    ("d 1\nk 0\nT 2\nnode 0\nnode 1\nedge (1) (0)+1 1.0\nedge (0) (1) 1.0\n"
     "edge (1) (0) 2.0\nedge (0) (1)-1 1.0\n", "AsymmetricWeight", 8),
]


@pytest.mark.parametrize("text,kind,line", MALFORMED)
def test_malformed_inputs(text, kind, line):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.kind == kind
    assert err.value.line == line
    assert err.value.column >= 1


# str(err) of each MALFORMED row, in order: kind, position and message
MALFORMED_MESSAGES = [
    "line 1, col 1: [MissingHeader] header 'k' out of order (expected 'd')",
    "line 3, col 1: [MissingHeader] 'node' before the d/k/T header lines",
    "line 7, col 1: [Syntax] unknown directive 'bogus'",
    'line 4, col 6: [Syntax] node: expected 1 integers, got 2',
    'line 4, col 1: [RangeViolation] node d-coordinates (3,) outside [0, 2)',
    'line 4, col 1: [RangeViolation] node k-coordinates (-1,) negative',
    'line 5, col 1: [DuplicateNode] node (0) already declared on line 4',
    'line 5, col 11: [Syntax] edge references undeclared node (1)',
    'line 5, col 16: [RangeViolation] weight must be a positive finite number, got 0.0',
    'line 5, col 1: [RangeViolation] zero-displacement edge (self loop)',
    'line 6, col 1: [DuplicateOrbit] '
    'orbit (CellNode(dpos=(0,), kpos=()),'
    ' CellNode(dpos=(0,), kpos=()), (1,)) already declared on line 5',
    'line 6, col 1: [AsymmetricWeight] '
    'orbit (CellNode(dpos=(0,), kpos=()),'
    ' CellNode(dpos=(0,), kpos=()), (1,)) re-declared with weight 2.0 (was 1.0 on line 5)',
    "line 5, col 16: [Syntax] bad weight 'heavy'",
    'line 6, col 3: [DuplicateOrbit] '
    'orbit (CellNode(dpos=(0,), kpos=()),'
    ' CellNode(dpos=(0,), kpos=()), (1,)) already declared on line 5',
    'line 6, col 1: [AsymmetricWeight] '
    'orbit (CellNode(dpos=(0,), kpos=()),'
    ' CellNode(dpos=(0,), kpos=()), (1,)) re-declared with weight 0.5 (was 1.0 on line 5)',
    'line 6, col 1: [DuplicateOrbit] '
    'orbit (CellNode(dpos=(0,), kpos=()),'
    ' CellNode(dpos=(0,), kpos=()), (1,)) already declared on line 5',
    'line 5, col 1: [RangeViolation] zero-displacement edge (self loop)',
    'line 7, col 1: [DuplicateOrbit] '
    'orbit (CellNode(dpos=(0,), kpos=(0,)),'
    ' CellNode(dpos=(0,), kpos=(1,)), (-1,)) already declared on line 6',
    'line 8, col 1: [DuplicateOrbit] '
    'orbit (CellNode(dpos=(1,), kpos=()),'
    ' CellNode(dpos=(1,), kpos=()), (1,)) already declared on line 6',
    'line 6, col 1: [DuplicateOrbit] '
    'orbit (CellNode(dpos=(0,), kpos=()),'
    ' CellNode(dpos=(0,), kpos=()), (1,)) already declared on line 5',
    'line 8, col 1: [AsymmetricWeight] '
    'orbit (CellNode(dpos=(0,), kpos=()),'
    ' CellNode(dpos=(1,), kpos=()), (0,)) re-declared with weight 2.0 (was 1.0 on line 7)',
]


def test_malformed_messages_pinned():
    assert len(MALFORMED_MESSAGES) == len(MALFORMED)
    for (text, _, _), message in zip(MALFORMED, MALFORMED_MESSAGES):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message


def test_comments_and_blank_lines():
    text = "# header\n\nd 1\nk 0\nT 1\n# nodes\nnode 0  # inline\nedge (0) (0)+1 1.0\n"
    g = parse(text)
    assert g.n_cell == 1


def test_offset_omitted_means_zero():
    text = "d 1\nk 1\nT 1\nnode 0 0\nnode 0 1\nedge (0 0) (0 1) 2.5\n"
    g = parse(text)
    assert g.orbits[0].offset == (0,)
    assert g.orbits[0].weight == 2.5


def test_multi_axis_offset():
    text = ("d 2\nk 0\nT 1\nnode 0 0\n"
            "edge (0 0) (0 0)+1+0 1.0\nedge (0 0) (0 0)+0+1 1.0\n"
            "edge (0 0) (0 0)+1-1 0.5\n")
    g = parse(text)
    assert {o.offset for o in g.orbits} == {(1, 0), (0, 1), (1, -1)}


def test_builtin_examples_fresh_copies():
    a = builtin_examples()["ex1"]
    b = builtin_examples()["ex1"]
    assert a == b and a is not b
