"""Seeded random data for the verification suites.

Units are drawn as coordinate data (winding, leading unit, a few positive
terms, a shallow nilpotent negative tail) and materialized at whatever
precision a check needs, so a precision failure can be retried on the
same case with a wider window without touching the stream of draws.
"""

from __future__ import annotations

from .errors import CCSymError, IndeterminateAtPrecision, InsufficientPrecision
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


def draw_unit(ring: Ring, rng, max_winding: int = 2, pos_terms: int = 4,
              neg_depth: int = 2) -> UnitDraw:
    terms = {0: ring.random_unit(rng)}
    for i in range(1, pos_terms + 1):
        terms[i] = ring.random_element(rng)
    if not ring.is_field:
        for i in range(1, neg_depth + 1):
            if rng.random() < 0.5:
                v = ring.random_nilpotent(rng)
                if not ring.is_zero(v):
                    terms[-i] = v
    return UnitDraw(ring, rng.randint(-max_winding, max_winding), terms)


def draw_steinberg_unit(ring: Ring, rng, **kw) -> UnitDraw:
    """A unit f such that 1 - f is provably a unit from its stored window."""
    for _ in range(200):
        d = draw_unit(ring, rng, **kw)
        probe = LaurentSeries.one(ring) - d.series(8)
        if any(ring.is_unit(c) for c in probe.coeffs):
            return d
    raise CCSymError("could not draw a Steinberg-admissible unit")


def draw_decomposition(ring: Ring, rng, window: int = 6, max_winding: int = 2,
                       neg_depth: int = 2) -> UnitDecomposition:
    """Random coordinates supported below `window`; all coordinates known."""
    pos = {}
    for i in range(1, window):
        if rng.random() < 0.6:
            v = ring.random_element(rng)
            if not ring.is_zero(v):
                pos[i] = v
    neg = {}
    if not ring.is_field:
        for i in range(1, neg_depth + 1):
            if rng.random() < 0.5:
                v = ring.random_nilpotent(rng)
                if not ring.is_zero(v):
                    neg[i] = v
    return UnitDecomposition(
        ring, rng.randint(-max_winding, max_winding), ring.random_unit(rng), pos, neg, INF
    )


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


def draw_split_pair(ring: Ring, rng, max_sections: int = 5, max_exp: int = 3):
    """Two factored rational functions supported on a shared section set."""
    from .projline import SplitRationalFunction

    sections = draw_sections(ring, rng, rng.randint(0, max_sections))
    exponents = [e for e in range(-max_exp, max_exp + 1) if e]

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


def with_precision_retry(check, start: int = 16, retries: int = 4):
    """Run check(prec), doubling the window on precision failures."""
    prec = start
    for attempt in range(retries + 1):
        try:
            return check(prec)
        except (InsufficientPrecision, IndeterminateAtPrecision):
            if attempt == retries:
                raise
            prec *= 2
