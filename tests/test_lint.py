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


CODE_BUILDERS = {"exec", "eval", "compile"}


def _code_builders(tree, allowed=()):
    """(line, name) of each exec/eval/compile outside the functions named in allowed."""
    exempt = {
        id(n)
        for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef) and f.name in allowed
        for n in ast.walk(f)
    }
    return [
        (node.lineno, node.id)
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in CODE_BUILDERS and id(node) not in exempt
    ]


def test_code_builders_are_flagged():
    snippet = "exec(s)\nf = eval\ncompile(s, 'x', 'exec')\ndef _kernels():\n    exec(t)\n"
    found = _code_builders(ast.parse(snippet), allowed=("_kernels",))
    assert sorted(line for line, _ in found) == [1, 2, 3]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_generated_code_stays_in_the_kernel_factory(path):
    # ring specs are outside input: only rings._kernels runs generated text,
    # and it builds that text from int p and m
    allowed = ("_kernels",) if path.name == "rings.py" else ()
    found = _code_builders(ast.parse(path.read_text(), str(path)), allowed)
    assert not found, f"{path.name}: {found}"


def test_kernel_factory_takes_ints_only():
    from ccsym.rings import STRAIGHT_LINE_ORDER, _kernels

    for p, m in (("3", 2), (3, "2"), (3.0, 2), (3, "2); import os; (")):
        with pytest.raises(TypeError):
            _kernels(p, m)
    assert _kernels(3, STRAIGHT_LINE_ORDER + 1) == {}
    assert set(_kernels(3, 2)) == {"add", "sub", "neg", "mul", "dot", "sweep"}
    assert set(_kernels(0, 2)) == {"mul", "sweep"}


def _method(call):
    """The name a call goes through: ring.add -> "add", add -> "add"."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else _name(func)


def _recurrences(tree):
    """(line, text) of each ``X[k] = <ring>.add(X[k], <ring>.mul(...))``, the
    ring's methods called directly or through local names add and mul."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target, value = node.targets[0], node.value
        if (
            isinstance(target, ast.Subscript)
            and isinstance(value, ast.Call)
            and _method(value) == "add"
            and len(value.args) == 2
            and ast.unparse(value.args[0]) == ast.unparse(target)
            and isinstance(value.args[1], ast.Call)
            and _method(value.args[1]) == "mul"
        ):
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_recurrences_are_flagged():
    snippet = (
        "v[k] = ring.add(v[k], ring.mul(a, x))\n"
        "v[k] = add(v[k], mul(a, v[k - i]))\n"
        "out[i + j] = self.ring.add(out[i + j], self.ring.mul(x, y))\n"
        "v[k] = ring.add(v[j], ring.mul(a, x))\n"
        "s = ring.add(s, ring.mul(a, x))\n"
        "d[k] = ring.add(d.get(k, zero), ring.mul(a, x))\n"
        "v[k] = ring.add(v[k], c)\n"
    )
    found = _recurrences(ast.parse(snippet))
    assert sorted(line for line, _ in found) == [1, 2, 3]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "rings.py"], ids=lambda p: p.name)
def test_the_sweep_recurrence_stays_in_rings(path):
    # v[k] += a*v[k + off] over a window is Ring.sweep, one kernel per kind
    # of ring; a module that writes the loop itself runs two ring calls a slot
    found = _recurrences(ast.parse(path.read_text(), str(path)))
    assert not found, f"{path.name}: {found}"


#: public parameters with a default that no library call sets, each with its reason
UNSET_DEFAULTS = {
    "inverse(prec)": "test reference routes cap the inverse past DEFAULT_PRECISION",
    "run_command(stdout)": "tests capture the output through it",
}


def _public_defaults(tree):
    """(def node, class node or None, parameter, position or None) for each
    parameter with a default of a public function, or of a public method or
    __init__ of a public class; position is the parameter's index among a
    call's positional arguments, past self or cls, None if keyword-only."""
    found = []

    def visit(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef) and owner is None and not node.name.startswith("_"):
                visit(node.body, node)
            elif isinstance(node, ast.FunctionDef) and (
                not node.name.startswith("_") or (owner is not None and node.name == "__init__")
            ):
                args = node.args
                params = args.posonlyargs + args.args
                bound = owner is not None and "staticmethod" not in map(_name, node.decorator_list)
                first = len(params) - len(args.defaults)
                for i, p in enumerate(params[first:], first):
                    found.append((node, owner, p.arg, i - bound))
                for p, d in zip(args.kwonlyargs, args.kw_defaults):
                    if d is not None:
                        found.append((node, owner, p.arg, None))

    visit(tree.body, None)
    return found


def _unset_defaults(tree):
    """(line, "name(parameter)") of each public default no call in the tree
    sets, by keyword or by position, outside the function's own body.  Calls
    are matched by name: a class, cls inside it, or super().__init__ calls
    __init__, so a method shares its callers with every same-named function."""
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
    found = []
    for node, owner, param, position in _public_defaults(tree):
        inside = {id(n) for n in ast.walk(node)}
        names, in_class = {node.name}, set()
        if node.name == "__init__":
            names.add(owner.name)
            in_class = {id(n) for n in ast.walk(owner)}

        def sets(call):
            if id(call) in inside:
                return False
            name = _method(call)
            if name not in names and not (name == "cls" and id(call) in in_class):
                return False
            if any(k.arg in (param, None) for k in call.keywords):
                return True
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            return position is not None and (starred or len(call.args) > position)

        if not any(map(sets, calls)):
            found.append((node.lineno, f"{node.name}({param})"))
    return found


def test_unset_defaults_are_flagged():
    snippet = (
        "def used(a, b=1, c=2, *, d=3):\n"
        "    return used(a, b, c, d=d)\n"
        "def dead(x=0):\n"
        "    pass\n"
        "def _private(y=0):\n"
        "    pass\n"
        "class Box:\n"
        "    def __init__(self, size=1, fill=None):\n"
        "        pass\n"
        "    def grow(self, by=1):\n"
        "        pass\n"
        "    @classmethod\n"
        "    def make(cls, n=0):\n"
        "        return cls(fill=n)\n"
        "used(0, 1)\n"
        "Box(2).grow(by=3)\n"
    )
    found = _unset_defaults(ast.parse(snippet))
    assert sorted(found) == [(1, "used(c)"), (1, "used(d)"), (3, "dead(x)"), (13, "make(n)")]


def test_every_public_default_is_set_by_the_library():
    # a default no library caller sets is a knob that does nothing for the
    # library: delete it, or allowlist it above with the reason it stays
    tree = ast.Module(
        body=[n for p in SOURCES for n in ast.parse(p.read_text(), str(p)).body], type_ignores=[]
    )
    found = [(line, name) for line, name in _unset_defaults(tree) if name not in UNSET_DEFAULTS]
    assert not found, found
    assert set(UNSET_DEFAULTS) <= {name for _, name in _unset_defaults(tree)}, "stale allowlist"
