"""The peeling kernel behind both coordinate sets, checked exhaustively."""

from itertools import product

import pytest

from ccsym.parsing import parse_ring
from ccsym.series import INF, LaurentSeries
from ccsym.symbols import UnitDecomposition, _peel, recompose, witt_decompose

SMALL_RINGS = ["F2[e]/(e^2)", "F3[e]/(e^2)", "F2[e]/(e^3)", "Z/4", "Z/8"]


def _binomials(ring, pos: dict, neg: dict) -> LaurentSeries:
    """The exact product prod (1 - a_i t^i) * prod (1 - a_{-i} t^-i)."""
    return recompose(UnitDecomposition(ring, 0, ring.one, pos, neg, INF))


@pytest.mark.parametrize("spec", ["F7", "Q", *SMALL_RINGS, "Q[e]/(e^3)"])
def test_peel_reads_binomial_products(spec):
    ring = parse_ring(spec)
    two, three = ring.from_int(2), ring.from_int(3)
    for coords in ({}, {1: two}, {2: ring.one, 3: three}, {1: three, 4: two, 5: ring.one}):
        coords = {i: a for i, a in coords.items() if not ring.is_zero(a)}
        v = _binomials(ring, coords, {})
        for n in (1, 4, 9):
            assert _peel(ring, [v.coeff(k) for k in range(n)]) == {
                i: a for i, a in coords.items() if i < n
            }


@pytest.mark.parametrize("spec", SMALL_RINGS)
def test_every_two_term_tail_decomposes(spec):
    ring = parse_ring(spec)
    e = ring.nilpotency_index
    nil = [x for x in ring.iter_elements() if ring.is_nilpotent(x)]
    eps = next(x for x in nil if not ring.is_zero(x))
    positives = [
        LaurentSeries.from_terms(ring, {0: ring.one, 1: ring.one}, prec=8),
        LaurentSeries.from_terms(ring, {0: ring.from_int(-1), 1: eps, 3: ring.one}),
    ]
    for b1, b2, pos, w in product(nil, nil, positives, (-1, 0, 2)):
        tail = LaurentSeries.from_terms(ring, {-2: b2, -1: b1, 0: ring.one})
        f = (tail * pos).shift(w)
        d = witt_decompose(f)
        assert d.w == w
        assert recompose(d).agrees_with(f)
        depth = -_binomials(ring, {}, d.neg).ell
        assert max(d.neg, default=0) <= (e - 1) * depth
