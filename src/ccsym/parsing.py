"""Text grammars: ring specs, elements, series, rational functions, forms.

Ring specs look like "F5", "Q", "F3[e]/(e^2)", "Q[e]/(e^3)", "Z/25" (or
"Z/5^2"); "Z/5" and "F5" name the same ring.  parse_ring returns one object
per spec text, and refuses a generator named t, the series variable.  Every
other text is read by the one recursive-descent ``_ExpressionParser`` (its
docstring lists the productions), which tokenizes the text once, reports
each error at its position in the whole text, and builds one
LaurentSeries per parsed value, its exact parts read as coefficient dicts:

- elements: integer/rational expressions in the nilpotent generator;
- series: the same plus the variable and an optional precision marker,
  e.g. "1 - e*t^-1 + 2*t^3 + O(t^8)";
- rational functions: factored products "c * (x - s1)^n1 * x^n2 * ...",
  where (x + sum) is x - s with s = -sum, so "(x - 1 + e)" is x - (1 - e);
- one-forms "f*dt + g*de" (a lone "0" is the zero one-form), two-forms
  "h*de^dt", and global two-forms
  "c*de/(x - s)^k + c*de*x^j + c*de" on the projective line;
- M-hat elements "x^e * (unit in z)", or the unit in z alone.
"""

from __future__ import annotations

import re

from .errors import ParseError, UnsupportedRing
from .forms import AOneForm, OneForm, TwoForm
from .projline import GlobalTwoForm, SplitRationalFunction
from .rings import (
    IntegersModPrimePower,
    PrimeField,
    RationalField,
    Ring,
    TruncatedPolynomialRing,
    prime_power,
)
from .series import INF, LaurentSeries
from .symbols import MHatElement


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


#: parse_ring's rings by spec text, so each spec names one object
_RINGS: dict = {}


def parse_ring(text: str) -> Ring:
    """The ring a spec names; the same object every time for the same text."""
    ring = _RINGS.get(text)
    if ring is not None:
        return ring
    compact = re.sub(r"\s+", "", text)
    for pattern, build in _RING_PATTERNS:
        m = pattern.match(compact)
        if m:
            try:
                ring = build(m)
            except UnsupportedRing as exc:
                raise ParseError(f"bad ring spec {text!r}: {exc}") from exc
            if ring.gen == "t":
                raise ParseError(f"bad ring spec {text!r}: t is the series variable")
            return _RINGS.setdefault(text, ring)
    raise ParseError(f"unrecognized ring spec {text!r}")


_TOKEN = re.compile(r"(\d+)|([A-Za-z]+)|([()+\-*/^])|(\S)")


def _tokenize(text: str):
    """(kind, value, position) triples; an operator is its own kind."""
    tokens = []
    for m in _TOKEN.finditer(text):
        num, name, op, bad = m.groups()
        at = m.start()
        if bad:
            raise ParseError("unexpected character", text, at)
        kind = "num" if num else "name" if name else op
        tokens.append((kind, int(num) if num else name or op, at))
    tokens.append(("end", None, len(text)))
    return tokens


def _merged(ring: Ring, a: dict, b: dict) -> dict:
    """a + b, exact values as {index: nonzero coefficient} dicts."""
    out, zero, add = dict(a), ring.zero, ring.add
    for k, c in b.items():
        if k in out:
            c = add(out[k], c)
            if c == zero:
                del out[k]
                continue
        out[k] = c
    return out


def _convolved(ring: Ring, a: dict, b: dict) -> dict:
    """a * b, exact values as {index: nonzero coefficient} dicts."""
    out, mul, add = {}, ring.mul, ring.add
    for i, x in a.items():
        for j, y in b.items():
            k, c = i + j, mul(x, y)
            out[k] = add(out[k], c) if k in out else c
    zero = ring.zero  # elements are canonical: zero is one value
    return {k: c for k, c in out.items() if c != zero}


def _series(ring: Ring, value) -> LaurentSeries:
    """A parsed value as a series: an exact one is its coefficient dict."""
    return LaurentSeries.from_terms(ring, value) if type(value) is dict else value


class _ExpressionParser:
    """Recursive-descent reader of one text into Laurent series values.

    sum := product (('+'|'-') product)*, product := unary (('*'|'/') unary)*,
    unary := ('-'|'+') unary | power, power := atom ['^' exponent]; so a
    sign covers the whole power after it, and -t^2 is -(t^2).

    rational := factored (('+'|'-') factored)*, summed only while no
    linear factor appears; factored := factor ('*' factor)*, factor :=
    linear ['^' exponent] | unary ('/' unary)*, and linear := 'x' |
    '(' 'x' (('+'|'-') product)* ')' is x plus that sum, x - s for s = -sum.

    form := '0' | term (('+'|'-') term)*, term := signs [product '*'] d<letter>,
    a product stopping before '*' d<letter>.  A two-form term goes on with
    '^' d<var>, a global one with '/' linear ['^' k] or '*' 'x' ['^' j].

    mhat := 'x' ['^' exponent] '*' product when that product ends the
    text; otherwise the whole text is the unit's sum.

    An exact value is a dict {index: nonzero coefficient}: sums merge,
    products convolve, and a monomial c*t^k has the power c^n*t^(kn), for
    n < 0 when c is a unit.  A value with an O-term, and the inverse or
    power of any other exact value, is a LaurentSeries and combines as one,
    so precision, NonUnit messages and long products come from the series
    alone; _series makes the one series of a value that stayed exact.
    """

    def __init__(self, text: str, ring: Ring, variables: dict, forms: bool = False):
        self.text = text
        self.ring = ring
        self.variables = variables
        self.forms = forms
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at_op(self, ops: str) -> bool:
        return self.tokens[self.i][0] in ops

    def skip(self, op: str) -> bool:
        """Consume op if it comes next."""
        if self.tokens[self.i][0] == op:
            self.i += 1
            return True
        return False

    def expect_op(self, op: str):
        if not self.skip(op):
            raise ParseError(f"expected {op!r}", self.text, self.peek()[2])

    def differential(self, i: int) -> bool:
        kind, name, _ = self.tokens[i]
        return kind == "name" and len(name) == 2 and name[0] == "d"

    def finish(self):
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", self.text, pos)

    def parse(self):
        value = self.sum()
        self.finish()
        return value

    # -- values: exact dicts, or series --------------------------------------

    def plus(self, a, b):
        if type(a) is dict and type(b) is dict:
            return _merged(self.ring, a, b)
        return _series(self.ring, a) + _series(self.ring, b)

    def negated(self, a):
        if type(a) is dict:
            neg = self.ring.neg
            return {k: neg(c) for k, c in a.items()}
        return -a

    def times(self, a, b):
        if type(a) is dict and type(b) is dict:
            return _convolved(self.ring, a, b)
        return _series(self.ring, a) * _series(self.ring, b)

    def reciprocal(self, a):
        ring = self.ring
        if type(a) is dict and len(a) == 1:
            [(k, c)] = a.items()
            if ring.is_unit(c):
                return {-k: ring.inv(c)}
        return _series(ring, a).inverse()

    def power(self, a, n: int):
        if n < 0:
            a, n = self.reciprocal(a), -n
        if type(a) is dict and len(a) == 1:  # (c*t^k)^n = c^n*t^(kn)
            [(k, c)] = a.items()
            c = self.ring.pow(c, n)
            return {k * n: c} if c != self.ring.zero else {}
        return _series(self.ring, a) ** n

    def element(self, value, pos: int):
        """value as a ring element: exact and constant."""
        if type(value) is dict:
            if value.keys() <= {0}:
                return value.get(0, self.ring.zero)
        elif value.prec == INF and (not value.coeffs or (value.ell, len(value.coeffs)) == (0, 1)):
            return value.coeff(0)
        raise ParseError("not a ring element", self.text, pos)

    # -- grammar ---------------------------------------------------------------

    def sum(self):
        value = self.product()
        while self.at_op("+-"):
            op = self.next()[1]
            rhs = self.product()
            value = self.plus(value, rhs if op == "+" else self.negated(rhs))
        return value

    def product(self):
        value = self.unary()
        while self.at_op("*/"):
            if self.forms and self.differential(self.i + 1):
                return value
            op = self.next()[1]
            rhs = self.unary()
            value = self.times(value, rhs if op == "*" else self.reciprocal(rhs))
        return value

    def unary(self):
        if self.skip("-"):
            return self.negated(self.unary())
        if self.skip("+"):
            return self.unary()
        base = self.atom()
        return self.power(base, self.exponent()) if self.skip("^") else base

    def exponent(self) -> int:
        kind, value, pos = self.next()
        if kind == "-":
            kind, value, pos = self.next()
            if kind != "num":
                raise ParseError("expected integer exponent", self.text, pos)
            return -value
        if kind == "(":
            inner = self.exponent()
            self.expect_op(")")
            return inner
        if kind != "num":
            raise ParseError("expected integer exponent", self.text, pos)
        return value

    def atom(self):
        kind, value, pos = self.next()
        if kind == "num":
            c = self.ring.from_int(value)
            return {0: c} if c != self.ring.zero else {}
        if kind == "(":
            inner = self.sum()
            self.expect_op(")")
            return inner
        if kind == "name":
            if value == "O":
                return self.big_o()
            if value in self.variables:
                return self.variables[value]
            raise ParseError(f"unknown symbol {value!r}", self.text, pos)
        raise ParseError("expected a value", self.text, pos)

    def big_o(self) -> LaurentSeries:
        self.expect_op("(")
        kind, value, pos = self.next()
        if kind != "name" or self.variables.get(value, {}).keys() != {1}:
            raise ParseError("O(...) needs the series variable", self.text, pos)
        n = self.exponent() if self.skip("^") else 1
        self.expect_op(")")
        return LaurentSeries.zero(self.ring, prec=n)

    def linear(self):
        """The section s of a linear factor 'x' or '(x + sum)', which is x - s
        for s = -sum; None, reading nothing, at any other factor."""
        kind, value, pos = self.peek()
        if kind == "name" and value == "x":
            self.i += 1
            return self.ring.zero
        if kind != "(" or self.tokens[self.i + 1][:2] != ("name", "x"):
            return None
        self.i += 2
        s = self.ring.zero
        while self.at_op("+-"):
            add = self.ring.add if self.next()[1] == "-" else self.ring.sub
            s = add(s, self.element(self.product(), pos))
        if not self.skip(")"):
            raise ParseError("expected (x - <section>)", self.text, pos)
        return s

    def factored(self):
        """The product of the constant factors (None if there is none) and
        the (s, n) of the linear factors (x - s)^n."""
        constant, factors, star = None, [], self.peek()[2]
        while True:
            kind, _, pos = self.peek()
            if kind in ("end", "*"):  # at the '*' that lacks this operand
                raise ParseError("empty factor", self.text, star if kind == "end" else pos)
            s = self.linear()
            if s is not None:
                factors.append((s, self.exponent() if self.skip("^") else 1))
            else:
                value = self.unary()
                while self.skip("/"):
                    value = self.times(value, self.reciprocal(self.unary()))
                constant = value if constant is None else self.times(constant, value)
            star = self.peek()[2]
            if not self.skip("*"):
                return constant, factors

    def rational_function(self):
        start = self.peek()[2]
        constant, factors = self.factored()
        while self.at_op("+-"):
            _, op, pos = self.next()
            rhs, more = self.factored()
            if factors or more:
                raise ParseError("a sum around a linear factor", self.text, pos)
            constant = self.plus(constant, rhs if op == "+" else self.negated(rhs))
        self.finish()
        return self.ring.one if constant is None else self.element(constant, start), factors

    def terms(self, markers: tuple):
        """(start, sign, coefficient or None, differential) per form term;
        the caller reads what follows the differential."""
        start = self.peek()[2]
        missing = f"term has no {'/'.join(markers)} marker"
        while True:
            sign = 1
            while self.at_op("+-"):
                sign = -sign if self.next()[1] == "-" else sign
            coeff = None if self.differential(self.i) else self.product()
            starred = coeff is None or self.skip("*")  # the product stopped before d<letter>
            name = self.next()[1]
            if not starred or name not in markers:
                raise ParseError(missing, self.text, start)
            yield start, sign, coeff, name
            kind, _, start = self.peek()
            if kind == "end":
                return
            if kind not in ("+", "-"):
                raise ParseError("trailing input", self.text, start)
            if kind == "+":
                self.i += 1
                start = self.peek()[2]

    def mhat(self):
        """(exponent, unit) of x^e * product, or (0, unit) of a unit sum."""
        if self.tokens[0][:2] == ("name", "x"):
            self.i = 1
            exponent = self.exponent() if self.skip("^") else 1
            if self.skip("*"):
                unit = self.product()
                if self.peek()[0] == "end":
                    return exponent, unit
            self.i = 0
        return 0, self.parse()


def _generator_variables(ring: Ring) -> dict:
    """The nilpotent generator by name, for k[e]/(e^m) with m >= 2 only."""
    if ring.is_field or not ring.has_section:
        return {}
    return {ring.gen: {0: ring.generator()}}


def _series_variables(ring: Ring, var: str) -> dict:
    return {var: {1: ring.one}, **_generator_variables(ring)}


def parse_series(ring: Ring, text: str) -> LaurentSeries:
    """A Laurent series in t, exact or cut by its '+ O(t^N)'."""
    return _series(ring, _ExpressionParser(text, ring, _series_variables(ring, "t")).parse())


def parse_element(ring: Ring, text: str):
    parser = _ExpressionParser(text, ring, _generator_variables(ring))
    return parser.element(parser.parse(), 0)


def parse_rational_function(ring: Ring, text: str):
    """Factored products c * (x - s)^n * ...; bare 'x' means (x - 0)."""
    parser = _ExpressionParser(text, ring, _generator_variables(ring))
    constant, factors = parser.rational_function()
    return SplitRationalFunction(ring, constant, factors)


def parse_mhat(ring: Ring, text: str):
    """x^e * (series in z); a bare series means exponent zero."""
    exponent, unit = _ExpressionParser(text, ring, _series_variables(ring, "z")).mhat()
    return MHatElement(ring, exponent, _series(ring, unit))


def parse_form(ring: Ring, text: str):
    """A one-form 'f*dt + g*de', a two-form 'h*de^dt', or '0', the zero
    one-form as the printers write it."""
    dgen = "d" + ring.gen
    parser = _ExpressionParser(text, ring, _series_variables(ring, "t"), forms=True)
    zero = LaurentSeries.zero(ring)
    if [tok[:2] for tok in parser.tokens] == [("num", 0), ("end", None)]:
        return OneForm(zero, zero)
    parts, seen = {"dt": {}, "de": {}, "h": {}}, set()
    for _, sign, coeff, name in parser.terms(("dt", dgen)):
        slot = "dt" if name == "dt" else "de"
        if name == dgen and parser.skip("^"):
            _, value, pos = parser.next()
            if value != "dt":
                raise ParseError("expected 'dt'", text, pos)
            slot = "h"
        coeff = {0: ring.one} if coeff is None else coeff
        parts[slot] = parser.plus(parts[slot], parser.negated(coeff) if sign < 0 else coeff)
        seen.add(slot)
    dt, de, h = (_series(ring, parts[slot]) for slot in ("dt", "de", "h"))
    if "h" in seen:
        if len(seen) > 1:
            raise ParseError("mixed one-form and two-form terms", text, 0)
        return TwoForm(h)
    return OneForm(dt, de)


def parse_global_two_form(ring: Ring, text: str):
    """Sum of '<coeff>*de/(x - s)^k' pole terms and '<coeff>*de*x^j' tail terms."""
    parser = _ExpressionParser(text, ring, _generator_variables(ring), forms=True)
    poles, tail = {}, {}
    for start, sign, coeff, _ in parser.terms(("d" + ring.gen,)):
        c = ring.one if coeff is None else parser.element(coeff, start)
        c = ring.neg(c) if sign < 0 else c
        if parser.skip("/"):
            sec = parser.linear()
            if sec is None:
                raise ParseError("expected a pole 1/(x - s)^k", text, start)
            k = parser.exponent() if parser.skip("^") else 1
            slot = poles.setdefault(sec, {})
            slot[k] = ring.add(slot.get(k, ring.zero), c)
            continue
        j = 0
        if parser.skip("*"):
            value = parser.next()[1]
            j = parser.exponent() if value == "x" and parser.skip("^") else 1
            if value != "x" or j < 0:
                raise ParseError("expected a tail power x^j, j >= 0", text, start)
        tail[j] = ring.add(tail.get(j, ring.zero), c)
    pole_forms = {v: {k: AOneForm(ring, c) for k, c in ks.items()} for v, ks in poles.items()}
    tail_forms = [AOneForm(ring, tail.get(j, ring.zero)) for j in range(max(tail, default=-1) + 1)]
    return GlobalTwoForm(ring, pole_forms, tail_forms)
