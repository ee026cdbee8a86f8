"""Split rational functions on the projective line over A and reciprocity.

Rational functions are kept in factored form c * prod (x - s_i)^(n_i)
with A-valued section points s_i.  Local expansions at a section (in the
coordinate t = x - s, or t = 1/x at infinity) are unit Laurent series,
so tame and Contou-Carrere symbols and residues of global two-forms can
be computed per point and multiplied or summed over the full section
set.  Both kinds of expansion are sums or products of one chart
expansion, (x - s)^n at a point (_linear_power), read off the binomial
series; a power of a unit base is cut at the requested relative
precision, and a nilpotent one stops by itself.  The reciprocity
checks require the sections involved to stay residue-disjoint; two
distinct section values over the same closed point raise
SectionCollision.
"""

from __future__ import annotations

from .errors import (
    CCSymError,
    MixedRings,
    NonUnit,
    NonZeroSum,
    SectionCollision,
    UnsupportedRing,
)
from .forms import AOneForm, TwoForm, res2
from .rings import Ring, format_power, format_sum, grouped
from .series import INF, LaurentSeries
from .symbols import contou_carrere


class SectionPoint:
    """An A-valued point of the projective line: an affine value or infinity."""

    __slots__ = ("value", "at_infinity")

    def __init__(self, value=None, at_infinity: bool = False):
        self.value = value
        self.at_infinity = at_infinity

    @classmethod
    def affine(cls, value) -> SectionPoint:
        return cls(value=value)

    @classmethod
    def infinity(cls) -> SectionPoint:
        return cls(at_infinity=True)

    def __eq__(self, other):
        return (
            isinstance(other, SectionPoint)
            and self.at_infinity == other.at_infinity
            and self.value == other.value
        )

    def __hash__(self):
        return hash(("inf",)) if self.at_infinity else hash(self.value)

    def format(self, ring: Ring) -> str:
        return "inf" if self.at_infinity else ring.format_element(self.value)

    def __repr__(self):
        return "SectionPoint(inf)" if self.at_infinity else f"SectionPoint({self.value!r})"


def _check_residue_disjoint(ring: Ring, values) -> None:
    """Distinct section values must reduce to distinct closed points."""
    seen = {}
    k = ring.residue_field
    for v in values:
        r = ring.residue(v)
        if r in seen and seen[r] != v:
            raise SectionCollision(
                f"sections {ring.format_element(seen[r])} and "
                f"{ring.format_element(v)} collide over the residue field {k}"
            )
        seen.setdefault(r, v)


class SplitRationalFunction:
    """c * prod (x - s_i)^(n_i) with unit constant and A-valued sections."""

    __slots__ = ("ring", "constant", "factors")

    def __init__(self, ring: Ring, constant=None, factors=()):
        self.ring = ring
        self.constant = ring.one if constant is None else constant
        if not ring.is_unit(self.constant):
            raise NonUnit("the leading constant must be a unit of A")
        merged: dict = {}
        for value, n in factors:
            merged[value] = merged.get(value, 0) + int(n)
        self.factors = {v: n for v, n in merged.items() if n != 0}

    def section_values(self):
        return list(self.factors)

    def degree(self) -> int:
        return sum(self.factors.values())

    def order_at(self, point: SectionPoint) -> int:
        if point.at_infinity:
            return -self.degree()
        return self.factors.get(point.value, 0)

    def local_expansion(self, point: SectionPoint, prec: int = 8) -> LaurentSeries:
        """Image in A((t)) at the point, a unit series known to relative prec."""
        acc = LaurentSeries.constant(self.ring, self.constant)
        for s, n in self.factors.items():
            acc = acc * _linear_power(self.ring, s, n, point, prec)
        return acc

    def format(self) -> str:
        """Text parse_rational_function reads back: a value of several terms is parenthesized."""
        parts = []
        cs = grouped(self.ring.format_element(self.constant))
        if cs != "1" or not self.factors:
            parts.append(cs)
        parts.extend(_linear_text(self.ring, s, n) for s, n in self.factors.items())
        return " * ".join(parts)

    def __repr__(self):
        return f"SplitRationalFunction({self.ring}, {self.format()})"


def _linear_text(ring: Ring, s, n: int) -> str:
    """(x - s)^n as the parser reads it, (x + a) for s = -a."""
    ss = grouped(ring.format_element(s))
    base = f"(x + {ss[1:]})" if ss.startswith("-") else f"(x - {ss})"
    return format_power(base, n)


def _linear_power(ring: Ring, s, n: int, point: SectionPoint, rel_prec: int) -> LaurentSeries:
    """(x - s)^n in the chart at point, off the binomial series
    sum_j C(n, j) a^(n-j) b^j of (a + b)^n, whose C(n, j) are integers for
    every n: t^n at s itself, (c + t)^n with c = v - s at another section
    v, and t^-n (1 - s t)^n at infinity (t = 1/x).  No series is inverted.

    A nilpotent c gives the exact polynomial for every n: (c + t)^n =
    t^n (1 + c t^-1)^n stops at c^(n_c) = 0, after at most n_c terms; so
    does (1 - s t)^n for a nilpotent s and n >= 0.  Any other base, c + t
    or 1 - s t, is a unit asked for rel_prec terms, the sum over j <
    rel_prec: a negative power is cut there, and so is a power n >= 0
    with more than rel_prec terms.  So the term count never grows with n.
    """
    if point.at_infinity:
        # t^-n * sum_j C(n, j) (-s)^j t^j
        lead, ratio, ell = ring.one, ring.neg(s), -n
        if n >= 0 and not ring.is_unit(s):
            count = min(n + 1, len(ring.nilpotent_powers(s)))
            return LaurentSeries(ring, ell, _binomial_terms(ring, n, lead, ratio, count))
    elif point.value == s:
        return LaurentSeries.t_power(ring, n)
    else:
        c = ring.sub(point.value, s)
        if not ring.is_unit(c):
            # sum_k C(n, k) c^k t^(n-k), built from t^n down
            count = len(ring.nilpotent_powers(c))
            if n >= 0:
                count = min(count, n + 1)
            terms = _binomial_terms(ring, n, ring.one, c, count)
            return LaurentSeries(ring, n - count + 1, terms[::-1])
        # sum_j C(n, j) c^(n-j) t^j, from c^n = (c^-1)^-n on by c^-1
        c_inv = ring.inv(c)
        lead, ratio, ell = ring.pow(c_inv, -n), c_inv, 0
    # a unit base: its first rel_prec terms, exact when that is all n + 1 of them
    count, prec = (n + 1, INF) if 0 <= n < rel_prec else (rel_prec, ell + rel_prec)
    return LaurentSeries(ring, ell, _binomial_terms(ring, n, lead, ratio, count), prec)


def _binomial_terms(ring: Ring, n: int, lead, ratio, count: int) -> list:
    """[C(n, j) * lead * ratio^j for j < max(count, 1)]: one ring product
    steps the power, and one more scales it unless C(n, j) = 1."""
    terms, power, binom = [lead], lead, 1
    for j in range(1, count):
        power = ring.mul(power, ratio)
        binom = binom * (n - j + 1) // j
        terms.append(power if binom == 1 else ring.mul(ring.from_int(binom), power))
    return terms


def tame_symbol_at_point(
    f: SplitRationalFunction, g: SplitRationalFunction, point: SectionPoint
):
    """(-1)^(v(f)v(g)) (f^v(g) / g^v(f))(point) over a field.

    Computed directly from the factored form: valuations are the listed
    exponents and the unit part is evaluated factor by factor, so this
    route is independent of the series machinery.
    """
    ring = f.ring
    if not ring.is_field:
        raise UnsupportedRing("the tame symbol formula needs field coefficients")
    if g.ring != ring:
        raise MixedRings("operands live over different fields")
    vf = f.order_at(point)
    vg = g.order_at(point)
    acc = ring.pow(ring.neg(ring.one), (vf * vg) & 1)
    acc = ring.mul(acc, ring.pow(f.constant, vg))
    acc = ring.mul(acc, ring.pow(g.constant, -vf))
    if not point.at_infinity:
        v = point.value
        for s, n in f.factors.items():
            if s != v:
                acc = ring.mul(acc, ring.pow(ring.sub(v, s), n * vg))
        for s, n in g.factors.items():
            if s != v:
                acc = ring.mul(acc, ring.pow(ring.sub(v, s), -n * vf))
    return acc


class ReciprocityResult:
    """Product of the per-point symbols and whether it collapses to one."""

    __slots__ = ("product", "passed", "per_point")

    def __init__(self, product, passed: bool, per_point: list):
        self.product = product
        self.passed = passed
        self.per_point = per_point

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, k) for k in self.__slots__] == [getattr(other, k) for k in self.__slots__]

    def __repr__(self):
        return (
            f"{type(self).__qualname__}(product={self.product!r}, "
            f"passed={self.passed!r}, per_point={self.per_point!r})"
        )

    def __bool__(self):
        return self.passed


def _section_set(f: SplitRationalFunction, g: SplitRationalFunction):
    values = list(dict.fromkeys(f.section_values() + g.section_values()))
    _check_residue_disjoint(f.ring, values)
    points = [SectionPoint.affine(v) for v in values]
    points.append(SectionPoint.infinity())
    return points


def _point_product(f, g, symbol) -> ReciprocityResult:
    """Product of symbol(pt) over the sections of f and g and infinity."""
    ring = f.ring
    per_point = []
    prod = ring.one
    for pt in _section_set(f, g):
        s = symbol(pt)
        per_point.append((pt, s))
        prod = ring.mul(prod, s)
    return ReciprocityResult(prod, prod == ring.one, per_point)


def weil_check(f: SplitRationalFunction, g: SplitRationalFunction) -> ReciprocityResult:
    """Product of tame symbols over the support of div(f), div(g) and infinity."""
    if not f.ring.is_field:
        raise UnsupportedRing("Weil reciprocity is stated over a field")
    return _point_product(f, g, lambda pt: tame_symbol_at_point(f, g, pt))


def anderson_romo_check(f: SplitRationalFunction, g: SplitRationalFunction) -> ReciprocityResult:
    """Product of the pairings <f, g>_s over all degenerating sections.

    The sections are residue-disjoint, so each local expansion is t^k
    times a unit power series: it has no negative coordinates, and the
    symbol needs coordinate windows (1, 1).  Each point is therefore
    expanded at window 1; were that ever too short, contou_carrere would
    raise a typed precision error, never return a wrong value.
    """
    if g.ring != f.ring:
        raise MixedRings("operands live over different rings")
    return _point_product(
        f, g, lambda pt: contou_carrere(f.local_expansion(pt, 1), g.local_expansion(pt, 1))
    )


class GlobalTwoForm:
    """A two-form on the projective line minus a residue-disjoint pole set.

    Written as sum_s sum_k w_{s,k} dx/(x-s)^k plus a polynomial tail
    sum_j w_{inf,j} x^j dx, with coefficients in Omega^1_A.  The
    Omega^2_A summand vanishes identically for the univariate rings
    supported here; this is checked by construction, never assumed.
    """

    __slots__ = ("ring", "poles", "tail")

    def __init__(self, ring: Ring, poles=None, tail=()):
        self.ring = ring
        self.poles = {}
        for value, parts in (poles or {}).items():
            # every written order is checked, a zero coefficient's too
            if any(int(k) < 1 for k in parts):
                raise CCSymError("pole orders must be >= 1")
            clean = {int(k): c for k, c in parts.items() if not c.is_zero()}
            if clean:
                self.poles[value] = clean
        self.tail = tuple(tail)
        _check_residue_disjoint(ring, list(self.poles))

    @classmethod
    def simple_poles(cls, ring: Ring, residues: dict) -> GlobalTwoForm:
        return cls(ring, {v: {1: c} for v, c in residues.items()})

    def pole_points(self):
        pts = [SectionPoint.affine(v) for v in self.poles]
        pts.append(SectionPoint.infinity())
        return pts

    def local_expansion(self, point: SectionPoint, prec: int = 8) -> TwoForm:
        """Expand in t = x - s (or 1/x) including the dx -> dt Jacobian."""
        ring = self.ring
        h = LaurentSeries.zero(ring, prec)
        for v, parts in self.poles.items():
            for k, c in parts.items():
                h = h + _linear_power(ring, v, -k, point, prec + k + 2).scalar_mul(c.coeff)
        for j, c in enumerate(self.tail):
            h = h + _linear_power(ring, ring.zero, j, point, prec).scalar_mul(c.coeff)
        if point.at_infinity:
            # x = 1/t, dx = -t^-2 dt
            h = h * LaurentSeries.t_power(ring, -2, ring.neg(ring.one))
        return TwoForm(h.truncate(prec))

    def residue_at_section(self, point: SectionPoint) -> AOneForm:
        """res2 of the local expansion; independent of the chart coordinate.

        Read at window 2, the least that fixes the t^-1 coefficient in
        every chart: the Jacobian -t^-2 at infinity costs two orders."""
        return res2(self.local_expansion(point, 2))

    def format(self) -> str:
        """Text parse_global_two_form reads back: the sum by format_sum of the
        terms c*de/(x - s)^k and c*de*x^j, or 0*de when there is none."""
        de, fmt = "d" + self.ring.gen, self.ring.format_element
        terms = [
            (fmt(c.coeff), f"{de}/{_linear_text(self.ring, v, k)}")
            for v, parts in self.poles.items()
            for k, c in parts.items()
        ]
        for j, c in enumerate(self.tail):
            terms.append((fmt(c.coeff), f"{de}*{format_power('x', j)}" if j else de))
        text = format_sum(terms)
        return f"0*{de}" if text == "0" else text


def residue_sum_check(omega: GlobalTwoForm) -> ReciprocityResult:
    """Sum of the residues over every pole and infinity; must vanish."""
    ring = omega.ring
    total = AOneForm.zero(ring)
    per_point = []
    for pt in omega.pole_points():
        r = omega.residue_at_section(pt)
        per_point.append((pt, r))
        total = total + r
    return ReciprocityResult(total, total.is_zero(), per_point)


def realize_residues(ring: Ring, assignment: dict) -> GlobalTwoForm:
    """Build sum eta_s dx/(x-s) with the prescribed simple-pole residues.

    The assignment maps SectionPoints to Omega^1_A values and must sum
    to zero (the residue at infinity is forced to minus the rest).
    """
    total = AOneForm.zero(ring)
    residues = {}
    for pt, eta in assignment.items():
        total = total + eta
        if not pt.at_infinity:
            residues[pt.value] = eta
    if not total.is_zero():
        raise NonZeroSum("residue assignment does not sum to zero")
    return GlobalTwoForm.simple_poles(ring, residues)
