"""Text grammars: ring specs, elements, series, rational functions, forms.

Ring specs look like "F5", "Q", "F3[e]/(e^2)", "Q[e]/(e^3)", "Z/25" (or
"Z/5^2"); "Z/5" and "F5" name the same ring.  Elements are
integer/rational polynomial expressions in the nilpotent generator;
series add the variable and an optional precision marker, e.g.
"1 - e*t^-1 + 2*t^3 + O(t^8)".  Rational functions are factored products
"c * (x - s1)^n1 * ...".
"""

from __future__ import annotations

import re

from .errors import ParseError, UnsupportedRing
from .rings import (
    IntegersModPrimePower,
    PrimeField,
    RationalField,
    Ring,
    TruncatedPolynomialRing,
    prime_power,
)
from .series import INF, LaurentSeries


_RING_PATTERNS = [
    (re.compile(r"^Q$"), lambda m: RationalField()),
    (re.compile(r"^F(\d+)$"), lambda m: PrimeField(int(m.group(1)))),
    (
        re.compile(r"^F(\d+)\[([a-z])\]/\(\2\^(\d+)\)$"),
        lambda m: TruncatedPolynomialRing(PrimeField(int(m.group(1))), m.group(2), int(m.group(3))),
    ),
    (
        re.compile(r"^Q\[([a-z])\]/\(\1\^(\d+)\)$"),
        lambda m: TruncatedPolynomialRing(RationalField(), m.group(1), int(m.group(2))),
    ),
    (
        re.compile(r"^Z/(\d+)\^(\d+)$"),
        lambda m: IntegersModPrimePower(int(m.group(1)), int(m.group(2))),
    ),
    (re.compile(r"^Z/(\d+)$"), lambda m: IntegersModPrimePower(*prime_power(int(m.group(1))))),
]


def parse_ring(text: str) -> Ring:
    compact = re.sub(r"\s+", "", text)
    for pattern, build in _RING_PATTERNS:
        m = pattern.match(compact)
        if m:
            try:
                return build(m)
            except UnsupportedRing as exc:
                raise ParseError(f"bad ring spec {text!r}: {exc}") from exc
    raise ParseError(f"unrecognized ring spec {text!r}")


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|([()+\-*/^]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError("unexpected character", text, pos)
            break
        if m.group(1):
            tokens.append(("num", int(m.group(1)), m.start(1)))
        elif m.group(2):
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _ExpressionParser:
    """Recursive-descent evaluator producing Laurent series values.

    sum := product (('+'|'-') product)*, product := unary (('*'|'/') unary)*,
    unary := ('-'|'+') unary | power, power := atom ['^' exponent]; so a
    sign covers the whole power after it, and -t^2 is -(t^2).
    """

    def __init__(self, text: str, ring: Ring, variables: dict):
        self.text = text
        self.ring = ring
        self.variables = variables
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", self.text, pos)

    def parse(self) -> LaurentSeries:
        value = self.sum()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", self.text, pos)
        return value

    def sum(self) -> LaurentSeries:
        value = self.product()
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op in "+-":
                self.next()
                rhs = self.product()
                value = value + rhs if op == "+" else value - rhs
            else:
                return value

    def product(self) -> LaurentSeries:
        value = self.unary()
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op in "*/":
                self.next()
                rhs = self.unary()
                value = value * rhs if op == "*" else value * rhs.inverse()
            else:
                return value

    def power(self) -> LaurentSeries:
        base = self.atom()
        kind, op, _ = self.peek()
        if kind == "op" and op == "^":
            self.next()
            return base ** self.exponent()
        return base

    def exponent(self) -> int:
        kind, value, pos = self.next()
        if kind == "op" and value == "-":
            kind, value, pos = self.next()
            if kind != "num":
                raise ParseError("expected integer exponent", self.text, pos)
            return -value
        if kind == "op" and value == "(":
            inner = self.exponent()
            self.expect_op(")")
            return inner
        if kind != "num":
            raise ParseError("expected integer exponent", self.text, pos)
        return value

    def unary(self) -> LaurentSeries:
        kind, op, _ = self.peek()
        if kind == "op" and op == "-":
            self.next()
            return -self.unary()
        if kind == "op" and op == "+":
            self.next()
            return self.unary()
        return self.power()

    def atom(self) -> LaurentSeries:
        kind, value, pos = self.next()
        if kind == "num":
            return LaurentSeries.constant(self.ring, self.ring.from_int(value))
        if kind == "op" and value == "(":
            inner = self.sum()
            self.expect_op(")")
            return inner
        if kind == "name":
            if value == "O":
                return self.big_o(pos)
            if value in self.variables:
                return self.variables[value]
            raise ParseError(f"unknown symbol {value!r}", self.text, pos)
        raise ParseError("expected a value", self.text, pos)

    def big_o(self, at: int) -> LaurentSeries:
        self.expect_op("(")
        kind, value, pos = self.next()
        if kind != "name" or value not in self.variables:
            raise ParseError("O(...) needs the series variable", self.text, pos)
        var = self.variables[value]
        if var.ell != 1:
            raise ParseError("O(...) needs the series variable", self.text, pos)
        kind, op, _ = self.peek()
        n = 1
        if kind == "op" and op == "^":
            self.next()
            n = self.exponent()
        self.expect_op(")")
        return LaurentSeries.zero(self.ring, prec=n)


def _generator_variables(ring: Ring) -> dict:
    """The nilpotent generator by name, for k[e]/(e^m) with m >= 2 only."""
    if ring.is_field or not ring.has_section:
        return {}
    return {ring.gen: LaurentSeries.constant(ring, ring.generator())}


def parse_series(ring: Ring, text: str, var: str = "t") -> LaurentSeries:
    variables = {var: LaurentSeries.t_power(ring, 1), **_generator_variables(ring)}
    return _ExpressionParser(text, ring, variables).parse()


def parse_element(ring: Ring, text: str):
    value = _ExpressionParser(text, ring, _generator_variables(ring)).parse()
    if value.is_zero_series and value.prec == INF:
        return ring.zero
    if value.ell != 0 or len(value.coeffs) != 1 or value.prec != INF:
        raise ParseError(f"{text!r} is not a ring element")
    return value.coeff(0)


def _split_top_level(text: str, seps: str):
    """Split on separators outside parentheses, keeping each piece's sign.

    Returns (piece, position) pairs, the position being where the piece
    starts in ``text``.  A sign directly following '^' belongs to an
    exponent and never splits.  '*' is binary: the pieces around each one
    are kept, empty or not; an empty piece is placed at the '*' that lacks
    its operand, the one after it or, for the last piece, the one before.
    """
    parts = []
    depth = 0
    start = 0
    prev = ""

    def cut(stop, star):
        body = text[start:stop]
        piece = body.strip()
        parts.append((piece, start + len(body) - len(body.lstrip()) if piece else star))

    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses", text, i)
        elif depth == 0 and ch in seps and prev != "^":
            if i > start or ch == "*":
                cut(i, i)
                start = i if ch == "-" else i + 1
            elif ch == "+":
                start = i + 1
        if not ch.isspace():
            prev = ch
    if depth != 0:
        raise ParseError("unbalanced parentheses", text, len(text))
    if text[start:].strip() or "*" in seps:
        cut(len(text), max(start - 1, 0))
    return parts


def _strip_signs(term: str):
    """(sign, body): the leading '+'/'-' signs of a term folded into +-1."""
    sign = 1
    body = term
    while body and body[0] in "+-":
        if body[0] == "-":
            sign = -sign
        body = body[1:].strip()
    return sign, body


_FACTOR = re.compile(r"^\((.*)\)(?:\^(-?\d+))?$", re.S)


def parse_rational_function(ring: Ring, text: str):
    """Factored products c * (x - s)^n * ...; bare 'x' means (x - 0)."""
    from .projline import SplitRationalFunction

    constant = ring.one
    factors = []
    for piece, at in _split_top_level(text, "*"):
        if not piece:
            raise ParseError("empty factor", text, at)
        m = re.match(r"^x(?:\^(-?\d+))?$", piece)
        if m:
            factors.append((ring.zero, int(m.group(1) or 1)))
            continue
        m = _FACTOR.match(piece)
        if m and m.group(1).strip().startswith("x"):
            inner = m.group(1).strip()
            n = int(m.group(2) or 1)
            body = inner[1:].strip()
            if not body:
                factors.append((ring.zero, n))
                continue
            if body[0] not in "+-":
                raise ParseError(f"expected x - <section> in {piece!r}", text, at)
            sec = parse_element(ring, body[1:])
            if body[0] == "-":
                factors.append((sec, n))
            else:
                factors.append((ring.neg(sec), n))
            continue
        constant = ring.mul(constant, parse_element(ring, piece))
    return SplitRationalFunction(ring, constant, factors)


_MHAT = re.compile(r"^\s*x(?:\^(-?\d+))?\s*\*\s*\((.*)\)\s*$", re.S)


def parse_mhat(ring: Ring, text: str):
    """x^e * (series in z); a bare series means exponent zero."""
    from .symbols import MHatElement

    m = _MHAT.match(text)
    if m:
        exponent = int(m.group(1) or 1)
        unit = parse_series(ring, m.group(2), var="z")
        return MHatElement(ring, exponent, unit)
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    return MHatElement(ring, 0, parse_series(ring, body, var="z"))


def parse_form(ring: Ring, text: str, var: str = "t"):
    """A one-form 'f*dt + g*de' or a two-form 'h*de^dt'."""
    from .forms import OneForm, TwoForm

    gen = ring.gen
    dt_part = LaurentSeries.zero(ring)
    de_part = LaurentSeries.zero(ring)
    h_part = LaurentSeries.zero(ring)
    saw_two = False
    saw_one = False
    for term, at in _split_top_level(text, "+-"):
        sign, body = _strip_signs(term)
        for marker, slot in (
            (f"*d{gen}^d{var}", "h"),
            (f"*d{var}", "dt"),
            (f"*d{gen}", "de"),
        ):
            if body.endswith(marker):
                coeff = parse_series(ring, body[: -len(marker)], var=var)
                break
        else:
            if body in (f"d{var}", f"d{gen}", f"d{gen}^d{var}"):
                coeff = LaurentSeries.one(ring)
                slot = {"d" + var: "dt", "d" + gen: "de"}.get(body, "h")
            else:
                raise ParseError(f"term {term!r} has no d{var}/d{gen} marker", text, at)
        if sign < 0:
            coeff = -coeff
        if slot == "h":
            h_part = h_part + coeff
            saw_two = True
        elif slot == "dt":
            dt_part = dt_part + coeff
            saw_one = True
        else:
            de_part = de_part + coeff
            saw_one = True
    if saw_two and saw_one:
        raise ParseError("mixed one-form and two-form terms", text, 0)
    if saw_two:
        return TwoForm(h_part)
    return OneForm(dt_part, de_part)


_POLE_TERM = re.compile(r"^(?:(?P<coeff>.+?)\*)?d(?P<gen>[a-z])(?P<rest>.*)$", re.S)
_POLE_REST = re.compile(r"^/\s*\(\s*x\s*-\s*(?P<sec>.+?)\s*\)(?:\^(?P<k>\d+))?$", re.S)
_TAIL_REST = re.compile(r"^\*\s*x(?:\^(?P<j>\d+))?$", re.S)


def parse_global_two_form(ring: Ring, text: str):
    """Sum of '<coeff>*de/(x - s)^k' pole terms and '<coeff>*de*x^j' tail terms."""
    from .forms import AOneForm
    from .projline import GlobalTwoForm

    gen = ring.gen
    poles: dict = {}
    tail: dict = {}
    for term, at in _split_top_level(text, "+-"):
        sign, body = _strip_signs(term)
        m = _POLE_TERM.match(body)
        if not m or m.group("gen") != gen:
            raise ParseError(f"term {term!r} lacks a d{gen} marker", text, at)
        coeff = parse_element(ring, m.group("coeff") or "1")
        if sign < 0:
            coeff = ring.neg(coeff)
        rest = m.group("rest").strip()
        if not rest:
            tail[0] = ring.add(tail.get(0, ring.zero), coeff)
            continue
        pm = _POLE_REST.match(rest)
        if pm:
            sec = parse_element(ring, pm.group("sec"))
            k = int(pm.group("k") or 1)
            slot = poles.setdefault(sec, {})
            slot[k] = ring.add(slot.get(k, ring.zero), coeff)
            continue
        tm = _TAIL_REST.match(rest)
        if tm:
            j = int(tm.group("j") or 1)
            tail[j] = ring.add(tail.get(j, ring.zero), coeff)
            continue
        raise ParseError(f"cannot read pole/tail part {rest!r}", text, at)
    pole_forms = {
        v: {k: AOneForm(ring, c) for k, c in parts.items()} for v, parts in poles.items()
    }
    jmax = max(tail) if tail else -1
    tail_forms = tuple(
        AOneForm(ring, tail.get(j, ring.zero)) for j in range(jmax + 1)
    )
    return GlobalTwoForm(ring, pole_forms, tail_forms)
