"""Library failures stay typed and arithmetic stays exact.

No bare asserts, untyped raises or catch-alls; no floating point anywhere
except the INF precision sentinel and the sampling probabilities of the
random generators.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ccsym").glob("*.py"))
UNTYPED = {"AssertionError", "RuntimeError", "ValueError"}


def _name(node):
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else None


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_failures_are_typed(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "bare assert"))
        elif isinstance(node, ast.Raise) and node.exc is not None and _name(node.exc) in UNTYPED:
            found.append((node.lineno, f"raise {_name(node.exc)}"))
        elif isinstance(node, ast.ExceptHandler) and (
            node.type is None or _name(node.type) == "Exception"
        ):
            found.append((node.lineno, "catch-all except"))
    assert not found, f"{path.name}: {found}"


def _allowed_floats(path, tree):
    """Ids of the float nodes the library may hold: ``INF = float("inf")``
    and, in randgen.py, the p of ``rng.random() < p``."""
    allowed = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["INF"]
            and _name(node.value) == "float"
            and [getattr(a, "value", None) for a in node.value.args] == ["inf"]
        ):
            allowed.add(id(node.value))
        elif (
            path.name == "randgen.py"
            and isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Call)
            and isinstance(node.left.func, ast.Attribute)
            and node.left.func.attr == "random"
        ):
            allowed.update(id(c) for c in node.comparators)
    return allowed


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floating_point(path):
    tree = ast.parse(path.read_text(), str(path))
    allowed = _allowed_floats(path, tree)
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Call) and _name(node) == "float":
            found.append((node.lineno, "float(...)"))
    assert not found, f"{path.name}: {found}"


def _ring_classes():
    """Ring and every class in rings.py derived from it."""
    tree = ast.parse((SOURCES[0].parent / "rings.py").read_text())
    names = {"Ring"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(_name(b) in names for b in node.bases):
            names.add(node.name)
    return names


def _ring_kind_tests(tree, ring_classes):
    """(line, text) of each isinstance(_, <ring class>) and hasattr(<ring>, _)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or len(node.args) != 2:
            continue
        subject, probe = node.args
        if _name(node) == "isinstance":
            kinds = probe.elts if isinstance(probe, ast.Tuple) else [probe]
            if any(_name(k) in ring_classes for k in kinds):
                found.append((node.lineno, ast.unparse(node)))
        elif _name(node) == "hasattr":
            subject = subject.attr if isinstance(subject, ast.Attribute) else _name(subject)
            if (subject or "").lower().endswith("ring"):
                found.append((node.lineno, ast.unparse(node)))
    return found


def test_ring_kind_checks_flag_class_and_attribute_tests():
    snippet = (
        "isinstance(r, TruncatedPolynomialRing)\n"
        "isinstance(r, (int, PrimeField))\n"
        "hasattr(ring, 'generator')\n"
        "hasattr(f.ring, 'base')\n"
        "isinstance(r, tuple)\n"
        "hasattr(value, 'format')\n"
    )
    found = _ring_kind_tests(ast.parse(snippet), _ring_classes())
    assert [line for line, _ in found] == [1, 2, 3, 4]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "rings.py"], ids=lambda p: p.name)
def test_ring_kinds_are_asked_of_the_ring(path):
    # a ring's kind is a fact the ring states (is_field, has_section,
    # x_level, generator()); only rings.py may test classes or attributes
    found = _ring_kind_tests(ast.parse(path.read_text(), str(path)), _ring_classes())
    assert not found, f"{path.name}: {found}"


def _base_reads(tree):
    """(line, text) of each ``.base`` attribute access."""
    return [
        (node.lineno, ast.unparse(node))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "base"
    ]


def test_base_reads_are_flagged():
    found = _base_reads(ast.parse("ring.base.zero\nf.ring.base\nbase = 1\nring.based\n"))
    assert sorted(line for line, _ in found) == [1, 2]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "rings.py"], ids=lambda p: p.name)
def test_element_layout_stays_in_rings(path):
    # how an element is stored depends on the base field (coefficients over
    # F_p, integer numerators over one denominator over Q), so only rings.py
    # reads a ring's base; everything else asks the ring
    found = _base_reads(ast.parse(path.read_text(), str(path)))
    assert not found, f"{path.name}: {found}"


def _environment_reads(tree):
    """(line, text) of each ``import os``/``from os import _`` and each
    ``os.environ``/``os.getenv`` access."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            names = [_name(node.value) or ""]
        else:
            continue
        if any(name == "os" or name.startswith("os.") for name in names):
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_environment_reads_are_flagged():
    snippet = (
        "import os\n"
        "import os.path\n"
        "from os import environ\n"
        "x = os.environ['A']\n"
        "y = os.getenv('B')\n"
        "import sys\n"
        "from osmosis import getenv\n"
        "z = cfg.environ\n"
    )
    found = _environment_reads(ast.parse(snippet))
    assert sorted(line for line, _ in found) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_reads_no_environment(path):
    # the library's behaviour is a function of its arguments: tuning
    # constants such as DEFAULT_PRECISION are module constants,
    # never knobs read from the environment
    found = _environment_reads(ast.parse(path.read_text(), str(path)))
    assert not found, f"{path.name}: {found}"


def test_parse_errors_carry_a_position():
    # outside ring specs, every ParseError names the text and a position in it
    tree = ast.parse((SOURCES[0].parent / "parsing.py").read_text())
    ring_spec = next(n for n in tree.body if getattr(n, "name", None) == "parse_ring")
    exempt = {id(n) for n in ast.walk(ring_spec)}
    raised = [
        node.exc
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and _name(node.exc) == "ParseError"
        and id(node) not in exempt
    ]
    found = [(c.lineno, ast.unparse(c)) for c in raised if len(c.args) + len(c.keywords) < 3]
    assert raised
    assert not found, found
