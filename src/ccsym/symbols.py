"""Unit-group coordinates and residue symbols on A((t))*.

Every unit f of A((t)) factors uniquely as

    f = a0 * t^w * prod_{i>0} (1 - a_i t^i) * prod_{i>0} (1 - a_{-i} t^{-i})

with a0 a unit, the negative coordinates nilpotent and almost all zero.
All coordinates come from one split f = t^w * h / G (series.py), which
the series keeps: the negative ones are read once, off 1/G in t^-1, when
the split is made; a0 is h(0), and the positive ones are read off h in t
by the same peeling recurrence (_peel), which divides by h(0) itself.
The Contou-Carrere symbol is a finite product of coordinates: nilpotency
truncates the pairing terms, and the negative coordinates fix the windows
(required_precision) instead of ever truncating an answer: the term of
a_i against b_{-j} is 1 once i/gcd(i, j) >= n_j (the least n with
b_{-j}^n = 0), hence for every i >= (n_j - 1)*j + 1, as
i/gcd(i, j) >= i/j.  Over a field the symbol
degenerates to the tame symbol at t = 0.  Kato's residue symbol for the
two-variable field k((x))((z)) is computed levelwise over k[x]/(x^m)
from the x^e * unit normal form.
"""

from __future__ import annotations

from math import gcd

from .errors import (
    IndeterminateAtPrecision,
    InsufficientPrecision,
    MixedFields,
    MixedRings,
    NonUnit,
)
from .rings import Ring, RingMap, format_power
from .series import DEFAULT_PRECISION, INF, LaurentSeries, _peel, _split_unit


class UnitDecomposition:
    """Winding number and multiplicative coordinates of a unit series.

    ``pos``/``neg`` map the coordinate index i to the (nonzero) value of
    a_i / a_{-i}; positive coordinates are known for 1 <= i < prec.
    """

    __slots__ = ("ring", "w", "a0", "pos", "neg", "prec")

    def __init__(self, ring: Ring, w: int, a0, pos: dict, neg: dict, prec):
        self.ring = ring
        self.w = w
        self.a0 = a0
        self.pos = pos
        self.neg = neg
        self.prec = prec

    def __eq__(self, other):
        return (
            isinstance(other, UnitDecomposition)
            and self.ring == other.ring
            and self.w == other.w
            and self.a0 == other.a0
            and self.pos == other.pos
            and self.neg == other.neg
            and self.prec == other.prec
        )

    def __repr__(self):
        fmt = self.ring.format_element
        pos = {i: fmt(a) for i, a in sorted(self.pos.items())}
        neg = {-i: fmt(a) for i, a in sorted(self.neg.items())}
        return (
            f"UnitDecomposition(w={self.w}, a0={fmt(self.a0)}, "
            f"pos={pos}, neg={neg}, prec={self.prec})"
        )


def witt_decompose(f: LaurentSeries, prec=None) -> UnitDecomposition:
    """Winding number and coordinates of a unit f, uniquely determined by f.

    ``prec`` requests the positive-coordinate window; it defaults to the
    relative precision of f (capped for exact inputs).  The achieved
    window is recorded on the result, never exceeded silently.  The
    negative coordinates are the split's, copied since the split is kept.
    """
    split = _split_unit(f)
    h = split.h
    ring = h.ring
    a0 = h.coeff(0)
    neg = dict(split.neg)
    if h.prec == INF and len(h.coeffs) <= 1:
        # pure monomial times negative tail: every positive coordinate is zero
        return UnitDecomposition(ring, split.w, a0, {}, neg, INF)
    if prec is None:
        prec = f.prec - split.w
    avail = int(min(h.prec, prec if prec != INF else DEFAULT_PRECISION))
    # h starts at t^0 (h(0) = a0 is a unit): its window is a slice, zero-padded
    window = [*h.coeffs[:avail], *[ring.zero] * (avail - len(h.coeffs))]
    return UnitDecomposition(ring, split.w, a0, _peel(ring, window), neg, avail)


def recompose(d: UnitDecomposition, prec=None) -> LaurentSeries:
    """Evaluate the coordinate product back into A((t)).

    Positive coordinates at indices >= prec are unknown, so the result
    carries the honestly propagated precision: the missing factors
    contribute 1 + O(t^prec), which the expanded negative tail pulls
    down to O(t^(w + prec + ell)) with ell the tail's lowest index.
    With every coordinate known (prec = inf) the product is exact.
    """
    if prec is None:
        prec = d.prec
    if d.prec < prec:
        raise IndeterminateAtPrecision(
            f"coordinates only known below index {d.prec}, requested {prec}"
        )
    ring = d.ring
    out = LaurentSeries.constant(ring, d.a0, prec)
    for i, a in sorted(d.pos.items()):
        if i >= prec:
            break
        out = out * LaurentSeries.from_terms(ring, {0: ring.one, i: ring.neg(a)})
    for i, a in sorted(d.neg.items()):
        out = out * LaurentSeries.from_terms(ring, {0: ring.one, -i: ring.neg(a)})
    return out.shift(d.w)


def _window(ring: Ring, neg: dict) -> int:
    """max over j of (n_j - 1)*j + 1, n_j the least n with b_{-j}^n = 0 (1 if no b)."""
    return max(((len(ring.nilpotent_powers(b)) - 1) * j + 1 for j, b in neg.items()), default=1)


def required_precision(f: LaurentSeries, g: LaurentSeries) -> tuple[int, int]:
    """Coordinate windows (for f, for g) that pin the symbol exactly.

    Positive coordinates a_i of one argument only meet the other's
    negative coordinates b_{-j} in the term 1 - a_i^(j/d) * b_{-j}^(i/d),
    d = gcd(i, j), which is 1 once i/d >= n_j (the least n with
    b_{-j}^n = 0), so for i >= (n_j - 1)*j + 1, as i/d >= i/j.  Each window
    is that bound maximised over j, and at least 1 for a0^w(g), b0^w(f).
    """
    if f.ring != g.ring:
        raise MixedRings(f"cannot pair series over {f.ring} and {g.ring}")
    neg_f, neg_g = _split_unit(f).neg, _split_unit(g).neg
    return _window(f.ring, neg_g), _window(f.ring, neg_f)


def contou_carrere(f: LaurentSeries, g: LaurentSeries):
    """The A*-valued pairing <f, g> evaluated exactly from coordinates.

    Equals the tame symbol at t = 0 when A is a field.  Each argument's
    negative coordinates, kept on its split, fix the other's window
    (required_precision) and its positive coordinates are read off the
    same split.  Raises InsufficientPrecision when the inputs do not
    determine every contributing coordinate.
    """
    req_f, req_g = required_precision(f, g)
    df, dg = witt_decompose(f, req_f), witt_decompose(g, req_g)
    if df.prec < req_f or dg.prec < req_g:
        raise InsufficientPrecision(
            f"need coordinate windows {req_f}/{req_g}, have {df.prec}/{dg.prec}"
        )
    return symbol_from_decompositions(df, dg)


def _pairing_product(ring: Ring, pos: dict, neg: dict):
    """prod over a_i in pos, b_{-j} in neg of (1 - a_i^(j/d) b_{-j}^(i/d))^d, d = gcd(i, j)."""
    out = ring.one
    for j, b in neg.items():
        powers = ring.nilpotent_powers(b)  # b^k = 0 from k = len(powers) on
        for i, a in pos.items():
            d = gcd(i, j)
            if i // d >= len(powers):
                continue
            term = ring.sub(ring.one, ring.mul(ring.pow(a, j // d), powers[i // d]))
            out = ring.mul(out, ring.pow(term, d))
    return out


def symbol_from_decompositions(df: UnitDecomposition, dg: UnitDecomposition):
    """Evaluate the pairing formula on two coordinate decompositions."""
    ring = df.ring
    result = ring.pow(ring.neg(ring.one), (df.w * dg.w) & 1)
    result = ring.mul(result, ring.pow(df.a0, dg.w))
    result = ring.mul(result, _pairing_product(ring, df.pos, dg.neg))
    den = ring.mul(ring.pow(dg.a0, df.w), _pairing_product(ring, dg.pos, df.neg))
    return ring.mul(result, ring.inv(den))


class MHatElement:
    """x^e * u, the normal form of a unit of the two-variable field.

    The unit part u is a unit Laurent series in z over k[x]/(x^m); the
    x-adic level m is the ring's truncation order.
    """

    __slots__ = ("ring", "exponent", "unit")

    def __init__(self, ring: Ring, exponent: int, unit: LaurentSeries):
        if not ring.x_level:
            raise MixedFields(f"{ring} is not a truncated local ring k[x]/(x^m)")
        if unit.ring != ring:
            raise MixedFields(f"unit part lives over {unit.ring}, expected {ring}")
        if not unit.is_unit():
            raise NonUnit("the z-series part must be a unit")
        self.ring = ring
        self.exponent = exponent
        self.unit = unit

    def deg(self) -> int:
        """z-order of the reduction of the unit part modulo x."""
        return self.unit.winding_number()

    def __mul__(self, other: MHatElement) -> MHatElement:
        if other.ring != self.ring:
            raise MixedFields("cannot multiply over different levels")
        return MHatElement(self.ring, self.exponent + other.exponent, self.unit * other.unit)

    def map_level(self, h: RingMap) -> MHatElement:
        return MHatElement(h.target, self.exponent, self.unit.map_coefficients(h))

    def format(self) -> str:
        body = f"({self.unit.format(var='z')})"
        xe = format_power("x", self.exponent)
        return f"{xe} * {body}" if xe else body

    def __repr__(self):
        return f"MHatElement({self.ring}, {self.format()})"


class KatoValue:
    """x^exponent * unit in k((x))*, recorded exactly modulo 1 + x^m k[[x]]."""

    __slots__ = ("ring", "exponent", "unit")

    def __init__(self, ring: Ring, exponent: int, unit):
        self.ring = ring
        self.exponent = exponent
        self.unit = unit

    def __eq__(self, other):
        return (
            isinstance(other, KatoValue)
            and self.ring == other.ring
            and self.exponent == other.exponent
            and self.unit == other.unit
        )

    def __hash__(self):
        return hash((self.ring, self.exponent, self.unit))

    def mul(self, other: KatoValue) -> KatoValue:
        if other.ring != self.ring:
            raise MixedFields("cannot multiply values at different levels")
        return KatoValue(
            self.ring,
            self.exponent + other.exponent,
            self.ring.mul(self.unit, other.unit),
        )

    def inv(self) -> KatoValue:
        return KatoValue(self.ring, -self.exponent, self.ring.inv(self.unit))

    def map_level(self, h: RingMap) -> KatoValue:
        return KatoValue(h.target, self.exponent, h(self.unit))

    def format(self) -> str:
        unit = self.ring.format_element(self.unit)
        xe = format_power("x", self.exponent)
        if not xe:
            return unit
        return xe if unit == "1" else f"{xe} * ({unit})"

    def __repr__(self):
        return f"KatoValue({self.ring}, {self.format()})"


def kato_residue(f: MHatElement, g: MHatElement) -> KatoValue:
    """The residue symbol {f, g} computed from the x^e * unit normal forms.

    Constants pair trivially and {c, u} = c^deg(u), so the x-exponent of
    the value is e1*deg(u2) - e2*deg(u1) while the unit parts pair through
    the Contou-Carrere symbol over k[x]/(x^m).
    """
    if f.ring != g.ring:
        raise MixedFields(f"levels {f.ring} and {g.ring} do not match")
    exponent = f.exponent * g.deg() - g.exponent * f.deg()
    unit = contou_carrere(f.unit, g.unit)
    return KatoValue(f.ring, exponent, unit)
