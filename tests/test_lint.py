"""Library failures stay typed: no bare asserts, untyped raises or catch-alls."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ccsym").glob("*.py"))
UNTYPED = {"AssertionError", "RuntimeError"}


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
