"""Seeded random data for the verification suites.

Units are drawn as coordinate data (winding, leading unit, a few positive
terms, a shallow nilpotent negative tail) and materialized at whatever
precision a check needs, so a precision failure can be retried on the
same case with a wider window without touching the stream of draws.
"""

from __future__ import annotations

from .errors import CCSymError, IndeterminateAtPrecision, InsufficientPrecision
from .projline import SplitRationalFunction
from .rings import Ring
from .series import INF, LaurentSeries
from .symbols import UnitDecomposition


class UnitDraw:
    """A random unit of A((t)) with precision chosen at materialization."""

    __slots__ = ("ring", "w", "terms")

    def __init__(self, ring: Ring, w: int, terms: dict):
        self.ring = ring
        self.w = w
        self.terms = terms

    def series(self, rel_prec: int) -> LaurentSeries:
        return LaurentSeries.from_terms(self.ring, self.terms, prec=rel_prec).shift(self.w)

    def format(self) -> str:
        return self.series(8).format()


def _nilpotent_tail(ring: Ring, rng) -> dict:
    """{j: a_j} for j = 1, 2: each a nonzero nilpotent with probability at
    most 1/2, none over a field."""
    tail = {}
    if not ring.is_field:
        for j in (1, 2):
            if rng.random() < 0.5:
                v = ring.random_nilpotent(rng)
                if not ring.is_zero(v):
                    tail[j] = v
    return tail


def draw_unit(ring: Ring, rng) -> UnitDraw:
    """t^w (c_0 + c_1 t + ... + c_4 t^4 + a_1 t^-1 + a_2 t^-2): c_0 a unit,
    the a_j from `_nilpotent_tail`, the winding w in [-2, 2]."""
    terms = {0: ring.random_unit(rng)}
    for i in range(1, 5):
        terms[i] = ring.random_element(rng)
    terms.update((-j, v) for j, v in _nilpotent_tail(ring, rng).items())
    return UnitDraw(ring, rng.randint(-2, 2), terms)


def draw_steinberg_unit(ring: Ring, rng) -> UnitDraw:
    """A unit f such that 1 - f is provably a unit from its stored window."""
    for _ in range(200):
        d = draw_unit(ring, rng)
        probe = LaurentSeries.one(ring) - d.series(8)
        if any(ring.is_unit(c) for c in probe.coeffs):
            return d
    raise CCSymError("could not draw a Steinberg-admissible unit")


def draw_decomposition(ring: Ring, rng) -> UnitDecomposition:
    """Exact random coordinates: positive ones at 1..5, negative ones from
    `_nilpotent_tail`, the winding in [-2, 2]."""
    pos = {}
    for i in range(1, 6):
        if rng.random() < 0.6:
            v = ring.random_element(rng)
            if not ring.is_zero(v):
                pos[i] = v
    neg = _nilpotent_tail(ring, rng)
    return UnitDecomposition(ring, rng.randint(-2, 2), ring.random_unit(rng), pos, neg, INF)


def draw_sections(ring: Ring, rng, count: int):
    """Up to `count` section values with pairwise distinct reductions."""
    k = ring.residue_field
    p = k.characteristic
    if p:
        residues = list(range(p))
        rng.shuffle(residues)
        residues = residues[: min(count, p)]
        lifts = [ring.lift(k.from_int(r)) for r in residues]
    else:
        chosen = rng.sample(range(-8, 9), min(count, 17))
        lifts = [ring.from_int(v) for v in chosen]
    out = []
    for v in lifts:
        if not ring.is_field:
            v = ring.add(v, ring.random_nilpotent(rng))
        out.append(v)
    return out


def draw_split_pair(ring: Ring, rng):
    """Two factored rational functions supported on a shared set of at most
    five sections, with exponents in [-3, 3] minus 0."""
    sections = draw_sections(ring, rng, rng.randint(0, 5))
    exponents = [e for e in range(-3, 4) if e]

    def one():
        used = [s for s in sections if rng.random() < 0.8]
        return SplitRationalFunction(
            ring,
            ring.random_unit(rng),
            [(s, rng.choice(exponents)) for s in used],
        )

    return one(), one()


def draw_uniformizer(ring: Ring, rng, prec: int = 40) -> LaurentSeries:
    terms = {1: ring.random_unit(rng)}
    for i in (2, 3):
        terms[i] = ring.random_element(rng)
    return LaurentSeries.from_terms(ring, terms, prec=prec)


def with_precision_retry(check, start: int = 16):
    """check(prec) at prec = start, doubling the window on each precision
    failure; the fifth try, at 16*start, raises what it raises."""
    prec = start
    for _ in range(4):
        try:
            return check(prec)
        except (InsufficientPrecision, IndeterminateAtPrecision):
            prec *= 2
    return check(prec)
