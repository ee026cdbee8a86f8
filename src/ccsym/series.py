"""Precision-tracked Laurent series A((t)) over a local Artinian ring.

A series stores its lowest index, a finite coefficient window, and an
explicit precision bound N: coefficients at indices >= N are unknown,
everything below N outside the stored window is exactly zero.  Exact
data (Laurent polynomials) carry infinite precision.  All operations
propagate the best sound precision and raise IndeterminateAtPrecision
rather than answer from unknown coefficients.  A product scales by a
one-coefficient window, or else is one Kronecker substitution: both
coefficient vectors are packed into integers, multiplied once, unpacked.

A unit splits once as f = t^w * h / G, h in A[[t]] with unit constant
term and G the exact product of the geometric inverses of the peeled
nilpotent negative tail; inverse, dlog and unit coordinates are read
from this split, which the series keeps.  A unit whose leading
coefficient is a unit has no tail and splits with G = 1 and no peel.
Each peeled factor divides t^-w*f*G and G in place, no series product,
and h = t^-w*f*G is known below (f.prec - w) + ell(G).  The split owns
the canonical coordinates a_{-i} of B = 1/G = prod (1 - a_{-i} t^-i),
kept as B's coefficient list in s = t^-1 and read once by the peeling
recurrence (_peel) that the positive coordinates use too.  The
divisions, B's update and the peel all run one ring kernel,
``ring.sweep``, over their windows.  Neither the split nor the peel
scales a series by its leading constant.
"""

from __future__ import annotations

import sys
from array import array
from collections import namedtuple

from .errors import (
    IndeterminateAtPrecision,
    InvariantViolation,
    MixedRings,
    NonUnit,
    NotAUniformizer,
)
from .rings import Ring, RingMap, format_power, format_sum

INF = float("inf")

#: window used when an exact series is inverted or expanded and the caller
#: did not request a precision; results still carry their explicit O(t^N).
DEFAULT_PRECISION = 24


class LaurentSeries:
    """An element of A((t)) known modulo O(t^prec)."""

    __slots__ = ("ring", "ell", "coeffs", "prec", "_split")

    def __init__(self, ring: Ring, ell: int, coeffs, prec=INF):
        if not isinstance(coeffs, (tuple, list)):
            coeffs = list(coeffs)
        if prec != INF:
            prec = int(prec)
            keep = prec - ell
            if keep < len(coeffs):
                coeffs = coeffs[: max(keep, 0)]
        zero = ring.zero  # elements are canonical: zero is one value
        lead = 0
        while lead < len(coeffs) and coeffs[lead] == zero:
            lead += 1
        tail = len(coeffs)
        while tail > lead and coeffs[tail - 1] == zero:
            tail -= 1
        self.ring = ring
        self.prec = prec
        self._split = None
        if lead == tail:
            self.ell = 0
            self.coeffs = ()
        else:
            self.ell = ell + lead
            self.coeffs = tuple(coeffs[lead:tail])

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: Ring, prec=INF) -> LaurentSeries:
        return cls(ring, 0, (), prec)

    @classmethod
    def one(cls, ring: Ring) -> LaurentSeries:
        return cls(ring, 0, (ring.one,))

    @classmethod
    def constant(cls, ring: Ring, c, prec=INF) -> LaurentSeries:
        return cls(ring, 0, (c,), prec)

    @classmethod
    def t_power(cls, ring: Ring, k: int, coeff=None) -> LaurentSeries:
        return cls(ring, k, (ring.one if coeff is None else coeff,))

    @classmethod
    def from_terms(cls, ring: Ring, terms: dict, prec=INF) -> LaurentSeries:
        if not terms:
            return cls.zero(ring, prec)
        lo = min(terms)
        hi = max(terms)
        coeffs = [terms.get(i, ring.zero) for i in range(lo, hi + 1)]
        return cls(ring, lo, coeffs, prec)

    # -- basic accessors ---------------------------------------------------

    @property
    def is_zero_series(self) -> bool:
        """True when every known coefficient is zero (exact zero if prec=inf)."""
        return not self.coeffs

    def end(self) -> int:
        return self.ell + len(self.coeffs)

    def coeff(self, i: int):
        """Coefficient of t^i; raises if i is beyond the precision bound."""
        if i >= self.prec:
            raise IndeterminateAtPrecision(
                f"coefficient of t^{i} unknown beyond O(t^{self.prec})"
            )
        if self.ell <= i < self.end():
            return self.coeffs[i - self.ell]
        return self.ring.zero

    def known(self, i: int) -> bool:
        return i < self.prec

    def _check(self, other: LaurentSeries) -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise MixedRings(f"cannot mix series over {self.ring} and {other.ring}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: LaurentSeries) -> LaurentSeries:
        self._check(other)
        prec = min(self.prec, other.prec)
        if not self.coeffs:
            return LaurentSeries(other.ring, other.ell, other.coeffs, prec)
        if not other.coeffs:
            return LaurentSeries(self.ring, self.ell, self.coeffs, prec)
        # copy the longer window, then add the shorter one into it
        a, b = (self, other) if len(self.coeffs) >= len(other.coeffs) else (other, self)
        ring = self.ring
        lo = min(a.ell, b.ell)
        out = [ring.zero] * (max(a.end(), b.end()) - lo)
        out[a.ell - lo : a.end() - lo] = a.coeffs
        for i, c in enumerate(b.coeffs, b.ell - lo):
            out[i] = ring.add(out[i], c)
        return LaurentSeries(ring, lo, out, prec)

    def __neg__(self) -> LaurentSeries:
        ring = self.ring
        return LaurentSeries(ring, self.ell, map(ring.neg, self.coeffs), self.prec)

    def __sub__(self, other: LaurentSeries) -> LaurentSeries:
        return self + (-other)

    def __mul__(self, other: LaurentSeries) -> LaurentSeries:
        self._check(other)
        ring = self.ring
        la = self.ell if self.coeffs else self.prec
        lb = other.ell if other.coeffs else other.prec
        prec = min(la + other.prec, lb + self.prec)
        if not self.coeffs or not other.coeffs:
            return LaurentSeries.zero(ring, prec)
        lo = self.ell + other.ell
        length = len(self.coeffs) + len(other.coeffs) - 1
        if prec != INF:
            length = min(length, prec - lo)
        if length <= 0:
            return LaurentSeries(ring, lo, (), prec)
        a, b = self.coeffs[:length], other.coeffs[:length]
        if len(b) == 1:
            a, b = b, a  # A is commutative: scale by the one-coefficient window
        if len(a) == 1:
            zero, mul, c = ring.zero, ring.mul, a[0]  # elements are canonical: zero is one value
            out = [zero if y == zero else mul(c, y) for y in b]
        else:
            out = _kronecker_product(ring, a, b, length)
        return LaurentSeries(ring, lo, out, prec)

    def scalar_mul(self, c) -> LaurentSeries:
        ring = self.ring
        return LaurentSeries(
            ring, self.ell, (ring.mul(c, x) for x in self.coeffs), self.prec
        )

    def shift(self, k: int) -> LaurentSeries:
        """Multiply by t^k (exact)."""
        return LaurentSeries(
            self.ring, self.ell + k, self.coeffs, self.prec + k if self.prec != INF else INF
        )

    def truncate(self, prec) -> LaurentSeries:
        return LaurentSeries(self.ring, self.ell, self.coeffs, min(self.prec, prec))

    def __pow__(self, n: int) -> LaurentSeries:
        if n < 0:
            return self.inverse() ** (-n)
        result = LaurentSeries.one(self.ring)
        base = self
        first = True
        while n:
            if n & 1:
                result = base if first else result * base
                first = False
            n >>= 1
            if n:
                base = base * base
        return result

    # -- unit structure ----------------------------------------------------

    def is_unit(self) -> bool:
        """Whether the reduction in k((t)) is nonzero.

        Decidable as soon as any stored coefficient is a unit of A, or
        when the series is exact; otherwise the precision window could
        hide a unit coefficient and the question is indeterminate.
        """
        try:
            self.winding_number()
        except NonUnit:
            return False
        return True

    def winding_number(self) -> int:
        """Order of the reduction of the series in k((t))."""
        ring = self.ring
        for i, c in enumerate(self.coeffs):
            if ring.is_unit(c):
                return self.ell + i
        if self.prec == INF:
            raise NonUnit(f"{self} is not a unit of {self.ring}((t))")
        raise IndeterminateAtPrecision(
            f"all coefficients of {self} below O(t^{self.prec}) are nilpotent"
        )

    def inverse(self, prec=None) -> LaurentSeries:
        """Multiplicative inverse, exact up to the propagated precision.

        Splits f = t^w*h/G and returns t^-w * h^-1 * G, with
        the power series h inverted by back-substitution.  ``prec`` caps
        both the expansion of h^-1 and the result.
        """
        out = _split_unit(self).inverse(prec)
        return out if prec is None else out.truncate(prec)

    # -- calculus and functoriality ----------------------------------------

    def derivative(self) -> LaurentSeries:
        """Termwise d/dt; the precision bound drops by one."""
        ring = self.ring
        out = [
            ring.mul(ring.from_int(self.ell + i), c)
            for i, c in enumerate(self.coeffs)
        ]
        prec = self.prec - 1 if self.prec != INF else INF
        return LaurentSeries(ring, self.ell - 1, out, prec)

    def map_coefficients(self, h: RingMap) -> LaurentSeries:
        if h.source != self.ring:
            raise MixedRings(f"map {h!r} does not apply to series over {self.ring}")
        return LaurentSeries(h.target, self.ell, map(h, self.coeffs), self.prec)

    def substitute(self, sigma: LaurentSeries) -> LaurentSeries:
        """Composition f(sigma(t)) for a uniformizer sigma = c*t + t^2*h.

        One Horner pass evaluates the window t^-ell*f at sigma, then one
        power sigma^ell (through sigma's inverse for ell < 0) puts the
        order back.  Precision is propagated by the underlying operations;
        the unknown tail of f enters at order f.prec since sigma has order one.
        """
        self._check(sigma)
        ring = self.ring
        if sigma.ell < 1 or not sigma.coeffs:
            raise NotAUniformizer("substitution series has terms below degree 1")
        if not sigma.known(1):
            raise NotAUniformizer("linear coefficient unknown at this precision")
        if not ring.is_unit(sigma.coeff(1)):
            raise NotAUniformizer("linear coefficient is not a unit")
        if not self.coeffs:
            # sigma has order one, so f(sigma) has order >= ell(f)
            return LaurentSeries.zero(ring, self.prec)
        acc = LaurentSeries.zero(ring)
        for c in reversed(self.coeffs):
            acc = acc * sigma + LaurentSeries.constant(ring, c)
        return acc.truncate(self.prec - self.ell) * sigma ** self.ell

    # -- comparison and display --------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentSeries)
            and self.ring == other.ring
            and self.ell == other.ell
            and self.coeffs == other.coeffs
            and self.prec == other.prec
        )

    def __hash__(self):
        return hash((self.ring, self.ell, self.coeffs, self.prec))

    def agrees_with(self, other: LaurentSeries) -> bool:
        """Equality of every coefficient both series claim to know."""
        self._check(other)
        bound = min(self.prec, other.prec)
        lo = min(self.ell if self.coeffs else 0, other.ell if other.coeffs else 0)
        hi = max(self.end(), other.end())
        ring = self.ring
        for i in range(lo, hi):
            if i >= bound:
                break
            a = self.coeffs[i - self.ell] if self.ell <= i < self.end() else ring.zero
            b = (
                other.coeffs[i - other.ell]
                if other.ell <= i < other.end()
                else ring.zero
            )
            if a != b:
                return False
        return True

    def format(self, var: str = "t") -> str:
        """The sum of c_i*var^i by format_sum, then +O(var^prec) when the
        series is not exact: ``-t^-1+(1+e)*t+O(t^4)``; no term prints 0."""
        fmt = self.ring.format_element
        terms = [(fmt(c), format_power(var, self.ell + i)) for i, c in enumerate(self.coeffs)]
        if self.prec != INF:
            terms.append((f"O({var}^{self.prec})", ""))
        return format_sum(terms)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"LaurentSeries({self.ring}, {self.format()})"


class _UnitSplit(namedtuple("_UnitSplit", "w neg geom h")):
    """f = t^w * h / G; ``neg`` maps i to the canonical a_{-i} of
    1/G = prod (1 - a_{-i} t^-i), ``geom`` is G, and h, whose constant
    term is the unit a0 of the coordinates, is known below
    (f.prec - w) + ell(G)."""

    __slots__ = ()

    def h_inverse(self, cap=None) -> LaurentSeries:
        """h^-1, exact for constant h, else cut at t^cap (or DEFAULT_PRECISION)."""
        h = self.h
        if h.prec == INF and len(h.coeffs) <= 1:
            return LaurentSeries.constant(h.ring, h.ring.inv(h.coeff(0)))
        prec = h.prec if cap is None else min(h.prec, cap)
        return _unit_power_series_inverse(h, DEFAULT_PRECISION if prec == INF else int(prec))

    def inverse(self, cap=None) -> LaurentSeries:
        """f^-1 = t^-w * h^-1 * G, known below (h^-1 window) + ell(G) - w."""
        return (self.h_inverse(cap) * self.geom).shift(-self.w)


def _split_unit(f: LaurentSeries) -> _UnitSplit:
    """Peel the nilpotent negative tail off a unit f (see _UnitSplit).

    Each step clears the deepest coefficient of h0*G below t^0 (h0 =
    f*t^-w, whose constant term c is a unit), pushing the rest into higher
    powers of the maximal ideal, so the loop ends (m^e = 0).  The peeled
    factor at depth d is 1 - a*t^d with a = -c^-1 * (h0*G)_d, so h0 itself
    is never scaled.  Each step divides the windows of h0*G and G by the
    factor in place (_divide_binomial), forming no series product; h = h0*G
    is known below (f.prec - w) + ell(G).  Raises when f is too short to fix G.
    When f's leading coefficient is a unit there is nothing to peel: G = 1,
    h = t^-w*f, and no coordinate is read.

    B = 1/G is kept exactly alongside G as its coefficient list in s = t^-1,
    constant first: each step multiplies it by (1 - a*s^|d|), one downward
    sweep (Ring.sweep), and _peel reads the list once at the end, with no
    series built per step.  B is a polynomial of degree D in s whose coefficients
    v[k], k > 0, lie in the maximal ideal m, hence in m^ceil(k/D).  Dividing
    by (1 - a_i s^i), a_i = -v[i], keeps that: the new v[k] sums
    a_i^j * v[k-ji], in m^(j*ceil(i/D) + ceil((k-ji)/D)), inside m^ceil(k/D).
    So a_{-i} lies in m^ceil(i/D) and vanishes for i > (e-1)*D, e the
    nilpotency index.  Peeling e*D+1 slots reads every coordinate, and the
    last D slots must peel to nothing.

    The split is kept on f, which is immutable, so every later caller
    reads the same one; a split that raised is tried afresh next time.
    """
    if f._split is not None:
        return f._split
    ring = f.ring
    w = f.winding_number()
    # hg = h0*G from t^lo, h0 known below t^top; G ends at its constant, t^0
    lo, top = f.ell - w, f.prec - w
    if lo == 0:  # no negative tail: G = 1 and h = t^-w*f
        f._split = _UnitSplit(w, {}, LaurentSeries.one(ring), LaurentSeries(ring, 0, f.coeffs, top))
        return f._split
    hg, geom = list(f.coeffs), [ring.one]
    c_inv = ring.inv(hg[-lo])
    zero, b = ring.zero, [ring.one]  # B in s = t^-1, constant first
    budget = 64 + 16 * ring.nilpotency_index * (1 + max(0, -lo))
    while lo < min(0, top + 1 - len(geom)):
        budget -= 1
        if budget < 0:
            raise InvariantViolation("negative-tail peeling did not terminate")
        minus_a = ring.mul(c_inv, hg[0])
        a = ring.neg(minus_a)
        # B *= 1 - a*s^-lo: downwards, so each b[k + lo] read is the old one
        b += [zero] * -lo
        ring.sweep(b, minus_a, range(len(b) - 1, -lo - 1, -1), lo)
        lo -= _divide_binomial(ring, lo, a, hg, geom)[0]
    ell_g = 1 - len(geom)
    if top + ell_g < 0:
        raise IndeterminateAtPrecision(f"negative tail of {f} not determined")
    while b[-1] == zero:
        b.pop()
    depth, e = len(b) - 1, ring.nilpotency_index
    neg = _peel(ring, [*b, *[zero] * ((e - 1) * depth)])
    if max(neg, default=0) > (e - 1) * depth:
        B = LaurentSeries(ring, -depth, b[::-1])
        raise InvariantViolation(f"negative coordinate of {B} beyond index {(e - 1) * depth}")
    h = LaurentSeries(ring, lo, hg, top + ell_g)
    f._split = _UnitSplit(w, neg, LaurentSeries(ring, ell_g, geom), h)
    return f._split


def _divide_binomial(ring: Ring, d: int, a, *windows) -> list:
    """Divide each window, a Laurent polynomial from its lowest nonzero slot
    up, in place by (1 - a*t^d), d < 0 and a^n = 0: the quotient q = v +
    a*t^d*q gains (n - 1)*|d| low slots, filled downwards by q[k] += a*q[k +
    |d|], one ``ring.sweep``, then loses its leading zeros.  Returns how
    many slots lower each window starts.  Raises for a unit a."""
    step = -d
    new = (len(ring.nilpotent_powers(a)) - 1) * step
    zero = ring.zero
    shifts = []
    for v in windows:
        v[:0] = [zero] * new
        ring.sweep(v, a, range(len(v) - 1 - step, -1, -1), step)
        for lead, x in enumerate(v):  # q != 0: 1 - a*t^d is a unit
            if x != zero:
                break
        del v[:lead]
        shifts.append(new - lead)
    return shifts


def _peel(ring: Ring, v: list) -> dict:
    """Coordinates {i: a_i} of v = v[0] * prod_{i>0} (1 - a_i s^i) mod s^len(v).

    Once the factors below i are divided out, v = v[0]*(1 - a_i s^i) +
    O(s^(i+1)), so a_i = -v[i]/v[0]; dividing by (1 - a_i s^i) is v[k] +=
    a_i * v[k-i], in place and upwards, one ``ring.sweep``.  It clears v[i]
    and leaves v[i+1..2i-1] as they are, since v[1..i-1] = 0.  Zero slots
    cost a comparison only: no coordinate is read off them and no update
    adds them.  _split_unit passes B's list in s as it stands, constant first.
    """
    coords = {}
    if len(v) < 2:
        return coords
    zero, n = ring.zero, len(v)
    u = ring.neg(ring.inv(v[0]))
    for i in range(1, n):
        if v[i] == zero:
            continue
        a = coords[i] = ring.mul(u, v[i])
        v[i] = zero
        ring.sweep(v, a, range(2 * i, n), -i)
    return coords


def _unit_power_series_inverse(g: LaurentSeries, n: int) -> LaurentSeries:
    """Inverse of g = u*(1 + O(t)) below t^min(n, g.prec), u a unit of A.

    Back-substitution over the stored window of g: with r_j = -g_j/u,
    out_k = sum_{0 < j <= k, j < g.end()} r_j * out_{k-j}, zero r_j
    included, one ``ring.dot`` per coefficient.
    """
    ring = g.ring
    n = min(n, g.prec)
    if n <= 0:
        raise IndeterminateAtPrecision("no known coefficients to invert")
    g0inv = ring.inv(g.coeff(0))
    ratios = [ring.neg(ring.mul(g0inv, g.coeff(j))) for j in range(1, min(g.end(), n))]
    out = [g0inv]
    for k in range(1, n):
        m = min(k, len(ratios))
        out.append(ring.dot(ratios[:m], out[k - m : k][::-1]))
    return LaurentSeries(ring, 0, out, n)


def _kronecker_product(ring: Ring, a, b, length: int) -> list:
    """The first ``length`` coefficients of (sum a_i t^i) * (sum b_j t^j).

    Kronecker substitution: ``ring.encode`` turns each vector into integer
    slots over one denominator, the slots become the digits of one integer
    in base 2^k, the two integers are multiplied once, and ``ring.decode``
    reads the coefficients back from the product's digits.  An output slot
    sums at most min(len(a), len(b)) * width products, so k holds it (and
    every input slot) with a sign bit and no digit carries into the next.
    Slots are stored with an offset of 2^(k-1) so that every digit is read
    as a plain unsigned number.  k/8 is rounded up to an ``array`` item size,
    1, 2, 4 or 8 bytes, which packs and unpacks the digits in C; wider slots
    go through ``int.to_bytes`` one by one.
    """
    xa, da = ring.encode(a)
    xb, db = ring.encode(b)
    width = ring.width
    top_a, top_b = max(1, *map(abs, xa)), max(1, *map(abs, xb))
    bound = top_a * top_b * min(len(a), len(b)) * width
    size = bound.bit_length() // 8 + 1
    size, code = next(((n, c) for n, c in _ARRAY_CODES if n >= size), (size, None))
    half = 1 << (8 * size - 1)
    offset = bytes(size - 1) + b"\x80"

    def pack(xs):
        xs = [x + half for x in xs]
        if code:
            digits = array(code, xs).tobytes()
        else:
            digits = b"".join([x.to_bytes(size, "little") for x in xs])
        return int.from_bytes(digits, "little") - int.from_bytes(offset * len(xs), "little")

    slots = length * (2 * width - 1)
    product = pack(xa) * pack(xb) + int.from_bytes(offset * slots, "little")
    digits = (product & ((1 << (8 * size * slots)) - 1)).to_bytes(size * slots, "little")
    values = array(code, digits) if code else [
        int.from_bytes(digits[i : i + size], "little") for i in range(0, len(digits), size)
    ]
    return ring.decode([v - half for v in values], da * db)


#: (item size, unsigned ``array`` code), sizes rising; native-endian items, read as little-endian
_ARRAY_CODES = [(array(c).itemsize, c) for c in "BHILQ" if sys.byteorder == "little"]
