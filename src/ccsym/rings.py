"""Exact arithmetic in local Artinian coefficient rings.

Supported rings: Z/p^m (the prime field F_p at m = 1), the rationals Q,
and truncated polynomial rings k[e]/(e^m) over either base field.
Elements are plain Python data in canonical form; each ring object
supplies the operations, in the style of dense-polynomial ground domains.
An element of Z/p^m is an int in [0, p^m), of Q a Fraction, and of
F_p[e]/(e^m) its tuple of m coefficients in [0, p).  An element of
Q[e]/(e^m) is the integer tuple (n_0, ..., n_{m-1}, d) for
(n_0 + n_1 e + ... + n_{m-1} e^(m-1)) / d, with d > 0 and the gcd of all
m + 1 entries 1, so that equal elements are equal tuples; its arithmetic
never builds a Fraction.  Code outside this module reads coefficients
only through ring methods.  Every element of a local ring here is either
a unit (nonzero residue) or nilpotent.  Up to STRAIGHT_LINE_ORDER, a
k[e]/(e^m) ring's arithmetic is straight-line code generated once per
(p, m) by _kernels and bound on the ring, so ``ring.mul(x, y)`` calls it
directly; ``ring.inv(x)`` is a generated back-substitution bound on the
ring, so that its NonUnit message names the ring.  ``ring.sweep(v, a, ks,
off)`` runs v[k] += a*v[k + off] over a window in place, the one recurrence
of series division and peeling: a loop on Ring, one expression per slot on
Z/p^m and in the generated kernels.
"""

from __future__ import annotations

import functools
import itertools
import operator
import types
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import InvariantViolation, NonUnit, NotAHomomorphism, UnsupportedRing


class Ring:
    """Base class for the supported local Artinian coefficient rings.

    Concrete rings expose ``zero``/``one``, the arithmetic methods, the
    residue/lift pair, and metadata: ``characteristic``, the nilpotency
    index (least e with m^e = 0, 1 for fields), ``has_section`` (True
    when the residue map admits a ring-homomorphism section, which the
    differential-form layer requires), ``x_level`` (True for the levels
    k[x]/(x^m) of Kato's two-variable field), the nilpotent ``generator()``
    and the powers of a nilpotent (``nilpotent_powers``).
    """

    characteristic: int
    nilpotency_index: int
    has_section: bool
    is_field: bool
    x_level = False
    #: name of the nilpotent generator in printed forms (de, de^dt); rings
    #: without one print the generic "e"
    gen = "e"
    #: integer slots one element occupies in a packed series product
    #: (series._kronecker_product); the slots of an element of width w are
    #: spaced 2w - 1 apart, so the product of two elements never overlaps
    #: the next one.
    width = 1

    # -- arithmetic ------------------------------------------------------

    def add(self, x, y):
        raise NotImplementedError

    def sub(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def pow(self, x, n: int):
        if n < 0:
            return self.pow(self.inv(x), -n)
        result = None  # x^0 = one is never multiplied in, nor x squared past the top bit
        while n:
            if n & 1:
                result = x if result is None else self.mul(result, x)
            n >>= 1
            if n:
                x = self.mul(x, x)
        return self.one if result is None else result

    def dot(self, xs, ys):
        """Sum of pairwise products."""
        raise NotImplementedError

    def sweep(self, v, a, ks, off):
        """v[k] += a*v[k + off] in place, for each k of ks in order, skipping a
        zero v[k + off]: the one recurrence of series division and peeling."""
        zero, add, mul = self.zero, self.add, self.mul
        for k in ks:
            x = v[k + off]
            if x != zero:
                v[k] = add(v[k], mul(a, x))

    def encode(self, xs):
        """(slots, den): the elements xs as integer slots over one denominator.

        Each element gives ``width`` slots followed by ``width - 1`` zeros.
        """
        raise NotImplementedError

    def decode(self, slots, den):
        """The elements whose slots, over ``den``, are ``slots``; each element
        reads the first ``width`` of its ``2*width - 1`` slots."""
        raise NotImplementedError

    # -- structure -------------------------------------------------------

    def is_zero(self, x) -> bool:
        raise NotImplementedError

    def is_unit(self, x) -> bool:
        raise NotImplementedError

    def is_nilpotent(self, x) -> bool:
        raise NotImplementedError

    @property
    def residue_field(self) -> Ring:
        raise NotImplementedError

    def residue(self, x):
        raise NotImplementedError

    def lift(self, c):
        """Pick the canonical preimage of a residue-field element."""
        raise NotImplementedError

    def generator(self):
        raise UnsupportedRing(f"{self} has no nilpotent generator")

    def nilpotent_powers(self, a) -> list:
        """[1, a, ..., a^(n-1)] for nilpotent a, n the least with a^n = 0."""
        powers, power = [self.one], a
        while not self.is_zero(power):
            if len(powers) == self.nilpotency_index:
                raise InvariantViolation(f"{self.format_element(a)} is not nilpotent in {self}")
            powers.append(power)
            power = self.mul(power, a)
        return powers

    def d_epsilon(self, x):
        raise UnsupportedRing(f"{self} has no nilpotent generator to differentiate by")

    def from_int(self, n: int):
        raise NotImplementedError

    # -- sampling and enumeration ----------------------------------------

    def random_element(self, rng):
        raise NotImplementedError

    def random_unit(self, rng):
        raise NotImplementedError

    def random_nilpotent(self, rng):
        raise NotImplementedError

    def iter_elements(self):
        raise UnsupportedRing(f"{self} is not finite")

    # -- text ------------------------------------------------------------

    def format_element(self, x) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.__str__()


def format_power(var: str, i: int) -> str:
    """The monomial var^i as printed: empty at i = 0, var at i = 1."""
    return "" if i == 0 else var if i == 1 else f"{var}^{i}"


def grouped(text: str) -> str:
    """text, parenthesized when a sign after its first character makes it a sum."""
    return f"({text})" if "+" in text or "-" in text[1:] else text


def format_sum(terms) -> str:
    """The one printer of a sum of (coefficient text, monomial) terms: a 0 is
    dropped; before a monomial, 1 or -1 prints as its sign alone and a sum is
    parenthesized (e, -e, 2*e, (1+e)*t); terms join by + unless one starts
    with -; no term prints 0."""
    parts = []
    for cs, mono in terms:
        if cs == "0":
            continue
        if mono:
            cs = cs[:-1] if cs in ("1", "-1") else grouped(cs) + "*"
        term = cs + mono
        parts.append(term if not parts or term.startswith("-") else "+" + term)
    return "".join(parts) or "0"


def _least_factor(n: int) -> int:
    """The least prime factor of n >= 2 (n itself when n is prime)."""
    return next((q for q in range(2, isqrt(n) + 1) if n % q == 0), n)


def prime_power(n: int) -> tuple[int, int]:
    """(p, m) with n = p^m, p prime and m >= 1; UnsupportedRing otherwise."""
    p, m, rest = _least_factor(max(n, 2)), 0, n
    while rest > 1 and rest % p == 0:
        rest, m = rest // p, m + 1
    if rest != 1 or m == 0:
        raise UnsupportedRing(f"{n} is not a prime power")
    return p, m


class IntegersModPrimePower(Ring):
    """Z/p^m with elements stored as reduced ints in [0, p^m).

    A quotient of a discrete valuation ring; m = 1 is the prime field F_p,
    printed ``F<p>``.  Symbols are fully supported for every m; for m > 1
    the differential-form layer rejects this ring because its residue map
    has no ring-homomorphism section.
    """

    def __init__(self, p: int, m: int):
        if p < 2 or _least_factor(p) != p:
            raise UnsupportedRing(f"{p} is not prime")
        if m < 1:
            raise UnsupportedRing("exponent must be >= 1")
        self.p = p
        self.m = m
        self.pm = p**m
        self.characteristic = self.pm
        self.nilpotency_index = m
        self.is_field = m == 1
        self.has_section = m == 1
        self.zero = 0
        self.one = 1 % self.pm

    def add(self, x, y):
        return (x + y) % self.pm

    def sub(self, x, y):
        return (x - y) % self.pm

    def neg(self, x):
        return -x % self.pm

    def mul(self, x, y):
        return x * y % self.pm

    def inv(self, x):
        if x % self.p == 0:
            raise NonUnit(f"{x} is not invertible in {self}")
        return pow(x, -1, self.pm)

    def pow(self, x, n: int):
        if n < 0:
            return pow(self.inv(x), -n, self.pm)
        return pow(x, n, self.pm)

    def dot(self, xs, ys):
        return sum(map(operator.mul, xs, ys)) % self.pm

    def sweep(self, v, a, ks, off):
        pm = self.pm
        for k in ks:
            x = v[k + off]
            if x:
                v[k] = (v[k] + a * x) % pm

    def encode(self, xs):
        return list(xs), 1

    def decode(self, slots, den):
        pm = self.pm
        return [v % pm for v in slots]

    def is_zero(self, x):
        return x == 0

    def is_unit(self, x):
        return x % self.p != 0

    def is_nilpotent(self, x):
        return x % self.p == 0

    @property
    def residue_field(self):
        return self if self.m == 1 else PrimeField(self.p)

    def residue(self, x):
        return x % self.p

    def lift(self, c):
        return c % self.pm

    def from_int(self, n):
        return n % self.pm

    def random_element(self, rng):
        return rng.randrange(self.pm)

    # The m = 1 branches keep the seeded draw streams of F_p: a unit is one
    # randrange(1, p), and zero is returned without drawing (randrange(1)
    # would still advance the generator).
    def random_unit(self, rng):
        if self.m == 1:
            return rng.randrange(1, self.p)
        x = rng.randrange(self.pm)
        while x % self.p == 0:
            x = rng.randrange(self.pm)
        return x

    def random_nilpotent(self, rng):
        if self.m == 1:
            return 0
        return self.p * rng.randrange(self.pm // self.p) % self.pm

    def iter_elements(self):
        return iter(range(self.pm))

    def format_element(self, x):
        return str(x)

    def __str__(self):
        return f"F{self.p}" if self.m == 1 else f"Z/{self.pm}"

    def __eq__(self, other):
        return self is other or (
            isinstance(other, IntegersModPrimePower)
            and other.p == self.p
            and other.m == self.m
        )

    def __hash__(self):
        return hash(("Z", self.p, self.m))


class PrimeField(IntegersModPrimePower):
    """F_p, the ring Z/p^m at m = 1."""

    def __init__(self, p: int):
        super().__init__(p, 1)


class RationalField(Ring):
    """Q with exact Fraction elements."""

    is_field = True
    nilpotency_index = 1
    has_section = True
    characteristic = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def inv(self, x):
        if not x:
            raise NonUnit("0 is not invertible in Q")
        return 1 / x

    def pow(self, x, n):
        if n < 0 and not x:
            raise NonUnit("0 is not invertible in Q")
        return x**n

    def dot(self, xs, ys):
        return Fraction(sum(map(operator.mul, xs, ys)))

    def encode(self, xs):
        den = lcm(*[x.denominator for x in xs])
        return [x.numerator * (den // x.denominator) for x in xs], den

    def decode(self, slots, den):
        return [Fraction(v, den) for v in slots]

    def is_zero(self, x):
        return not x

    def is_unit(self, x):
        return bool(x)

    def is_nilpotent(self, x):
        return not x

    @property
    def residue_field(self):
        return self

    def residue(self, x):
        return x

    def lift(self, c):
        return Fraction(c)

    def from_int(self, n):
        return Fraction(n)

    def random_element(self, rng):
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    def random_unit(self, rng):
        num = rng.choice([n for n in range(-6, 7) if n])
        return Fraction(num, rng.randint(1, 4))

    def random_nilpotent(self, rng):
        return Fraction(0)

    def format_element(self, x):
        return str(x)

    def __str__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


def _reduced(nums, den):
    """The canonical tuple (*nums, den) / g, g = gcd(den, *nums), for den > 0."""
    g = gcd(den, *nums)
    if g == 1:
        return (*nums, den)
    return (*[n // g for n in nums], den // g)


def _non_unit(ring: Ring, x) -> NonUnit:
    """The error for inverting the non-unit x of a k[e]/(e^m) ring."""
    return NonUnit(f"{ring.format_element(x)} is not a unit of {ring}")


def _truncated_product(x, y, m: int) -> list:
    """The first m coefficients of the product of the integer vectors x and y."""
    acc = [0] * m
    for i in range(m):
        xi = x[i]
        if xi:
            for j in range(m - i):
                acc[i + j] += xi * y[j]
    return acc


#: Truncation orders up to this get straight-line kernels (_kernels); above
#: it the rings run the loops of their class methods.  Generated text grows
#: as m^2 (about 3 ms to build at m = 32, 100 ms and 75 MB at m = 256), and
#: parse_ring and --xprec accept any order.
STRAIGHT_LINE_ORDER = 32


# typed, so that a non-int argument never finds an int's entry: it reaches
# operator.index and raises
@functools.lru_cache(maxsize=None, typed=True)
def _kernels(p: int, m: int) -> dict:
    """Straight-line arithmetic on the elements of k[e]/(e^m), by name.

    Over F_p (p prime): ``add``, ``sub``, ``neg``, ``mul``, ``dot``,
    ``sweep`` and ``inv`` on tuples of m coefficients in [0, p).  Over Q
    (p = 0): ``mul``, ``sweep`` and ``inv`` on the tuples (n_0, ..., n_{m-1},
    d).  Each function unpacks its arguments into locals and writes every
    coefficient out, so no loop runs per coefficient; ``sweep`` (see
    Ring.sweep) forms y + a*x in one expression per slot, one ``% p`` per
    coefficient over F_p and one gcd reduction over Q, _reduced written out
    in place, as in ``mul`` and ``inv`` there.  ``inv(ring, x)`` is the
    back-substitution of the class methods, one expression per coefficient;
    it takes the ring to name it in its NonUnit message, and the ring binds
    it as a method.  The text is built from the ints p and m alone, never
    from ring text.  Empty above STRAIGHT_LINE_ORDER.
    """
    p, m = operator.index(p), operator.index(m)
    if m > STRAIGHT_LINE_ORDER:
        return {}
    xs = "".join(f"x{i}, " for i in range(m))
    ys, as_ = xs.replace("x", "y"), xs.replace("x", "a")

    def conv(u, w):
        """The m coefficients of the product of the tuples named u and w."""
        return [" + ".join(f"{u}{i}*{w}{k - i}" for i in range(k + 1)) for k in range(m)]

    acc = [f"a{k}" for k in range(m)]
    sums = "".join(f"        {a} += {c}\n" for a, c in zip(acc, conv("x", "y")))

    def out(cs):
        """The tuple of the expressions cs, each reduced mod p (over F_p)."""
        return "(" + "".join(f"({c}) % {p}, " for c in cs) + ")"

    def back(k, y, w=""):
        """-(sum of x_i*y_{k-i}[*w_{i-1}] over 0 < i <= k): step k of the
        back-substitution of inv."""
        return "-(" + " + ".join(
            f"x{i}*{y}{k - i}" + (f"*{w}{i - 1}" if w else "") for i in range(1, k + 1)
        ) + ")"

    def reduced(target, cs, den, pad):
        """Lines giving target (``return `` or ``v[k] = ``) the tuple (*cs,
        den) over Q divided by the gcd g of its entries: _reduced written
        out, with no call and no list."""
        ns, cut = "".join(f"n{i}, " for i in range(m)), "".join(f"n{i} // g, " for i in range(m))
        lines = [f"n{i} = {c}" for i, c in enumerate(cs)] + [
            f"den = {den}",
            f"g = _gcd(den, {ns})",
            f"{target}({ns}den) if g == 1 else ({cut}den // g)",
        ]
        return "".join(f"{pad}{line}\n" for line in lines)

    # sweep compares x = v[k + off] with the zero tuple, a constant
    if p == 0:
        powers = "".join(f"    w{j} = w{j - 1}*x0\n" for j in range(1, m + 1))
        steps = "".join(f"    q{k} = {back(k, 'q', 'w')}\n" for k in range(1, m))
        terms = (f"y{i}*d + ({c})*dy" for i, c in enumerate(conv("a", "x")))
        source = f"""
def mul(x, y):
    {xs}dx = x
    {ys}dy = y
{reduced("return ", conv("x", "y"), "dx*dy", "    ")}\
def sweep(v, a, ks, off):
    {as_}da = a
    for k in ks:
        x = v[k + off]
        if x != {(0,) * m + (1,)}:
            {xs}dx = x
            {ys}dy = v[k]
            d = da*dx
{reduced("v[k] = ", terms, "dy*d", "            ")}\
def inv(ring, x):
    {xs}dx = x
    if not x0:
        raise _non_unit(ring, x)
    q0 = w0 = 1
{powers}{steps}    if w{m} < 0:
        dx, w{m} = -dx, -w{m}
{reduced("return ", (f"dx*q{k}*w{m - 1 - k}" for k in range(m)), f"w{m}", "    ")}\
"""
    else:
        steps = "".join(f"    y{k} = y0*{back(k, 'y')} % {p}\n" for k in range(1, m))
        source = f"""
def add(x, y):
    {xs}= x
    {ys}= y
    return {out(f"x{i} + y{i}" for i in range(m))}
def sub(x, y):
    {xs}= x
    {ys}= y
    return {out(f"x{i} - y{i}" for i in range(m))}
def neg(x):
    {xs}= x
    return {out(f"-x{i}" for i in range(m))}
def mul(x, y):
    {xs}= x
    {ys}= y
    return {out(conv("x", "y"))}
def dot(xs, ys):
    {" = ".join(acc)} = 0
    for ({xs}), ({ys}) in zip(xs, ys):
{sums}    return {out(acc)}
def sweep(v, a, ks, off):
    {as_}= a
    for k in ks:
        x = v[k + off]
        if x != {(0,) * m}:
            {xs}= x
            {ys}= v[k]
            v[k] = {out(f"y{i} + {c}" for i, c in enumerate(conv("a", "x")))}
def inv(ring, x):
    {xs}= x
    if not x0:
        raise _non_unit(ring, x)
    y0 = pow(x0, -1, {p})
{steps}    return ({ys})
"""
    namespace = {"_gcd": gcd, "_non_unit": _non_unit}
    exec(compile(source, f"<kernels p={p} m={m}>", "exec"), namespace)
    return {name: op for name, op in namespace.items() if not name.startswith("_")}


class TruncatedPolynomialRing(Ring):
    """k[e]/(e^m) over a base field k.

    Over F_p an element is its length-m tuple of coefficients in [0, p).
    Over Q the constructor returns a RationalTruncatedRing, whose elements
    are integer numerators over one denominator.  Either way
    ``coefficients``/``from_coefficients`` convert to and from the tuple of
    base-field coefficients, and ``numerators`` gives integer numerators
    over one denominator.  The generator name is cosmetic ("e" for
    deformation parameters, "x" for truncated local fields k[x]/(x^m)); the
    ring structure only depends on the base field and the truncation order.
    """

    is_field = False
    has_section = True

    def __new__(cls, base: Ring, gen: str = "e", order: int = 1):
        if cls is TruncatedPolynomialRing and base.characteristic == 0:
            cls = RationalTruncatedRing
        return super().__new__(cls)

    def __reduce__(self):
        # rebuilt by the constructor, which binds the kernels again: they are
        # generated functions, which pickle cannot name
        return type(self), (self.base, self.gen, self.order)

    def __init__(self, base: Ring, gen: str = "e", order: int = 1):
        if not base.is_field:
            raise UnsupportedRing("truncated polynomial rings need a field base")
        if order < 1:
            raise UnsupportedRing("truncation order must be >= 1")
        self.base = base
        self.gen = gen
        self.x_level = gen == "x"
        self.order = order
        self.characteristic = base.characteristic
        self.nilpotency_index = order
        self.width = order
        self.is_field = order == 1
        self.zero = self.lift(base.zero)
        self.one = self.lift(base.one)
        # the kernels shadow the class methods; a subclass keeps its own
        # methods, so an override (a counting mul, say) stays in force.  inv
        # takes the ring as well, to name it in its NonUnit message
        if type(self) in (TruncatedPolynomialRing, RationalTruncatedRing):
            for name, op in _kernels(self.characteristic, order).items():
                setattr(self, name, types.MethodType(op, self) if name == "inv" else op)

    def at_order(self, order: int) -> TruncatedPolynomialRing:
        """k[e]/(e^order) over the same base field and generator name."""
        return TruncatedPolynomialRing(self.base, self.gen, order)

    # -- layout: F_p coefficient tuples (RationalTruncatedRing overrides) --

    def coefficients(self, x) -> tuple:
        """The base-field coefficients of x, constant term first."""
        return x

    def from_coefficients(self, cs):
        """The element with the given base-field coefficients."""
        return tuple(cs)

    def numerators(self, x):
        """(integer numerators, denominator) of x's coefficients."""
        return x, 1

    def drop_top(self, x):
        """x less its e^(m-1) term: its representative modulo e^(m-1)."""
        return x[:-1] + (0,)

    def add(self, x, y):
        p = self.characteristic
        return tuple([(a + b) % p for a, b in zip(x, y)])

    def sub(self, x, y):
        p = self.characteristic
        return tuple([(a - b) % p for a, b in zip(x, y)])

    def neg(self, x):
        p = self.characteristic
        return tuple([-a % p for a in x])

    def mul(self, x, y):
        p = self.characteristic
        return tuple([a % p for a in _truncated_product(x, y, self.order)])

    def dot(self, xs, ys):
        return functools.reduce(self.add, map(self.mul, xs, ys), self.zero)

    def encode(self, xs):
        pad = self.zero[1:]
        return self.base.encode([c for x in xs for c in x + pad])

    def decode(self, slots, den):
        m = self.order
        kept = [v for j in range(0, len(slots), 2 * m - 1) for v in slots[j : j + m]]
        flat = self.base.decode(kept, den)
        return [tuple(flat[j : j + m]) for j in range(0, len(flat), m)]

    def inv(self, x):
        # Triangular back-substitution on c0*(1 + nilpotent part).
        base = self.base
        if not base.is_unit(x[0]):
            raise _non_unit(self, x)
        c0inv = base.inv(x[0])
        out = [c0inv] + [base.zero] * (self.order - 1)
        for d in range(1, self.order):
            s = base.zero
            for i in range(1, d + 1):
                s = base.add(s, base.mul(x[i], out[d - i]))
            out[d] = base.neg(base.mul(c0inv, s))
        return tuple(out)

    def residue(self, x):
        return x[0]

    def d_epsilon(self, x):
        p = self.characteristic
        return tuple(i * x[i] % p for i in range(1, self.order)) + (0,)

    # -- shared: canonical elements, read through the layout methods --------

    def generator(self):
        if self.order < 2:
            raise UnsupportedRing(f"{self} has no nonzero nilpotent generator")
        base = self.base
        return self.from_coefficients(
            [base.one if i == 1 else base.zero for i in range(self.order)]
        )

    def is_zero(self, x):
        return x == self.zero

    def is_unit(self, x):
        return x[0] != 0

    def is_nilpotent(self, x):
        return x[0] == 0

    @property
    def residue_field(self):
        return self.base

    def lift(self, c):
        return self.from_coefficients((c,) + (self.base.zero,) * (self.order - 1))

    def from_int(self, n):
        return self.lift(self.base.from_int(n))

    def random_element(self, rng):
        base = self.base
        return self.from_coefficients([base.random_element(rng) for _ in range(self.order)])

    def random_unit(self, rng):
        base = self.base
        return self.from_coefficients(
            [base.random_unit(rng)] + [base.random_element(rng) for _ in range(self.order - 1)]
        )

    def random_nilpotent(self, rng):
        base = self.base
        return self.from_coefficients(
            [base.zero] + [base.random_element(rng) for _ in range(self.order - 1)]
        )

    def iter_elements(self):
        pools = [list(self.base.iter_elements())] * self.order
        return map(self.from_coefficients, itertools.product(*pools))

    def format_element(self, x):
        """The sum of c_i*e^i by format_sum: ``1+2*e^2``, ``1-e``, ``-1/2*e``."""
        fmt = self.base.format_element
        return format_sum(
            (fmt(c), format_power(self.gen, i)) for i, c in enumerate(self.coefficients(x))
        )

    def __str__(self):
        return f"{self.base}[{self.gen}]/({self.gen}^{self.order})"

    def __eq__(self, other):
        return self is other or (
            isinstance(other, TruncatedPolynomialRing)
            and other.base == self.base
            and other.order == self.order
            and other.gen == self.gen
        )

    def __hash__(self):
        return hash(("T", self.base, self.gen, self.order))


class RationalTruncatedRing(TruncatedPolynomialRing):
    """Q[e]/(e^m) on integers, in the layout of FLINT's fmpq_poly.

    An element is the tuple (n_0, ..., n_{m-1}, d) of m integer numerators
    and one denominator, standing for (n_0 + n_1 e + ... ) / d, with d > 0
    and gcd(n_0, ..., n_{m-1}, d) = 1.  Every element has exactly one such
    tuple, so == and hash are tuple comparisons.  Arithmetic runs on the
    integers and reduces each result once (_reduced); Fractions appear only
    at the edges (residue, lift, coefficients and from_coefficients, hence
    printing and the random draws).  Build it with TruncatedPolynomialRing.
    """

    def coefficients(self, x):
        d = x[-1]
        return tuple(Fraction(n, d) for n in x[:-1])

    def from_coefficients(self, cs):
        # reduced fractions over the lcm of their denominators share no factor
        cs = list(cs)
        den = lcm(*[c.denominator for c in cs])
        return (*[c.numerator * (den // c.denominator) for c in cs], den)

    def numerators(self, x):
        return x[:-1], x[-1]

    def drop_top(self, x):
        return _reduced([*x[:-2], 0], x[-1])

    def from_int(self, n):
        return (n,) + self.one[1:]

    def residue(self, x):
        return Fraction(x[0], x[-1])

    def add(self, x, y):
        dx, dy = x[-1], y[-1]
        if dx == dy:
            return _reduced([a + b for a, b in zip(x[:-1], y)], dx)
        return _reduced([a * dy + b * dx for a, b in zip(x[:-1], y)], dx * dy)

    def sub(self, x, y):
        dx, dy = x[-1], y[-1]
        if dx == dy:
            return _reduced([a - b for a, b in zip(x[:-1], y)], dx)
        return _reduced([a * dy - b * dx for a, b in zip(x[:-1], y)], dx * dy)

    def neg(self, x):
        return (*[-a for a in x[:-1]], x[-1])

    def mul(self, x, y):
        m = self.order
        return _reduced(_truncated_product(x, y, m), x[m] * y[m])

    def dot(self, xs, ys):
        """One common denominator: the lcm of the products' denominators."""
        m = self.order
        dens = [x[m] * y[m] for x, y in zip(xs, ys)]
        den = lcm(*dens)
        acc = [0] * m
        for x, y, d in zip(xs, ys, dens):
            scale = den // d
            for i in range(m):
                xi = x[i]
                if xi:
                    xi *= scale
                    for j in range(m - i):
                        acc[i + j] += xi * y[j]
        return _reduced(acc, den)

    def encode(self, xs):
        den = lcm(*[x[-1] for x in xs])
        pad = [0] * (self.order - 1)
        slots = []
        for x in xs:
            scale = den // x[-1]
            slots.extend(x[:-1] if scale == 1 else [n * scale for n in x[:-1]])
            slots.extend(pad)
        return slots, den

    def decode(self, slots, den):
        m = self.order
        return [_reduced(slots[j : j + m], den) for j in range(0, len(slots), 2 * m - 1)]

    def inv(self, x):
        # x = N/d with N = sum n_i e^i; N^-1 = sum q_k e^k / n0^(k+1) where
        # q_0 = 1 and q_k = -sum_{1<=i<=k} n_i q_(k-i) n0^(i-1), so
        # x^-1 = sum d q_k n0^(m-1-k) e^k / n0^m.
        m, n0 = self.order, x[0]
        if not n0:
            raise _non_unit(self, x)
        q = [1]
        for k in range(1, m):
            q.append(-sum(x[i] * q[k - i] * n0 ** (i - 1) for i in range(1, k + 1)))
        nums = [x[m] * qk * n0 ** (m - 1 - k) for k, qk in enumerate(q)]
        den = n0**m
        if den < 0:
            nums, den = [-v for v in nums], -den
        return _reduced(nums, den)

    def d_epsilon(self, x):
        return _reduced([i * x[i] for i in range(1, self.order)] + [0], x[-1])


class RingMap:
    """A supported coefficient homomorphism h: A -> B.

    Three constructors: the residue map A -> k, a local map between
    truncated rings sending the generator to a nilpotent image, and the
    truncation Z/p^m -> Z/p^m' for m' <= m.  They validate locality and
    well-definedness and raise NotAHomomorphism otherwise.  ``gen_image``
    is the image of the source generator: zero for the residue map, None
    for the truncation, which sends no generator anywhere.
    """

    def __init__(self, source: Ring, target: Ring, apply, label: str, gen_image=None):
        self.source = source
        self.target = target
        self._apply = apply
        self.label = label
        self.gen_image = gen_image

    def __call__(self, x):
        return self._apply(x)

    def __repr__(self):
        return f"RingMap({self.label}: {self.source} -> {self.target})"


def residue_map(ring: Ring) -> RingMap:
    k = ring.residue_field
    return RingMap(ring, k, ring.residue, "residue", gen_image=k.zero)


def epsilon_map(source: Ring, target: Ring, image) -> RingMap:
    """Map k[e]/(e^m) -> B determined by e -> image, a nilpotent of B."""
    if not isinstance(source, TruncatedPolynomialRing):
        raise NotAHomomorphism(f"{source} has no polynomial generator")
    if isinstance(target, TruncatedPolynomialRing):
        if target.base != source.base:
            raise NotAHomomorphism(f"base fields of {source} and {target} differ")
    elif target != source.base:
        raise NotAHomomorphism(f"{target} is not a ring over {source.base}")
    if not target.is_nilpotent(image):
        raise NotAHomomorphism("image of the generator must be nilpotent")
    if not target.is_zero(target.pow(image, source.order)):
        raise NotAHomomorphism(
            f"image^{source.order} != 0 in {target}; map is not well defined"
        )

    def apply(x):
        # Horner on the integer numerators, then one division by the denominator
        nums, den = source.numerators(x)
        acc = target.zero
        for n in reversed(nums):
            acc = target.add(target.mul(acc, image), target.from_int(n))
        return acc if den == 1 else target.mul(acc, target.inv(target.from_int(den)))

    return RingMap(
        source,
        target,
        apply,
        f"{source.gen}->{target.format_element(image)}",
        gen_image=image,
    )


def truncation_map(source: Ring, new_exponent: int) -> RingMap:
    """Z/p^m -> Z/p^m' for 1 <= m' <= m; at m' = 1 the target is F_p."""
    if not isinstance(source, IntegersModPrimePower):
        raise NotAHomomorphism(f"{source} is not of the form Z/p^m")
    if not 1 <= new_exponent <= source.m:
        raise NotAHomomorphism("target exponent must satisfy 1 <= m' <= m")
    target = IntegersModPrimePower(source.p, new_exponent)
    return RingMap(source, target, lambda x: x % target.pm, f"mod {target.pm}")
