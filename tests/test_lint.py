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
