"""Coordinate windows and the two-form's precision, checked from outside.

(a) the window (n_j - 1)*j + 1 against a brute-force scan of the pairing
terms; (b) every answer given on truncated inputs is the answer of exact
completions of them; (c) depth-2 pairs over F_p[e]/(e^4) at O(t^16)
answer at their first window; (d) dlog and dlog2 against the f^-1*df
route, written here.
"""

import functools
import itertools
import random
from math import gcd

import pytest

from ccsym.errors import IndeterminateAtPrecision, InsufficientPrecision
from ccsym.forms import OneForm, d_series, dlog, dlog2, dlog_element, res2, wedge
from ccsym.parsing import parse_ring
from ccsym.series import DEFAULT_PRECISION, INF, LaurentSeries, _split_unit
from ccsym.symbols import contou_carrere, required_precision, witt_decompose

PRECISION = (InsufficientPrecision, IndeterminateAtPrecision)


def _nilpotents(ring):
    return [x for x in ring.iter_elements() if ring.is_nilpotent(x)]


@pytest.mark.parametrize("spec", ["F2[e]/(e^4)", "F3[e]/(e^3)", "Z/8", "Z/27"])
def test_window_is_tight(spec):
    """With g = prod_j (1 - b_j t^-j), j <= 3: every term 1 - a^(j/d) b_j^(i/d),
    d = gcd(i, j), is 1 for i >= window and all a; some is not at window - 1."""
    ring = parse_ring(spec)
    elements = list(ring.iter_elements())
    f = LaurentSeries.from_terms(ring, {0: ring.one, 1: ring.one})
    e = ring.nilpotency_index

    power = functools.lru_cache(maxsize=None)(ring.pow)

    def term(i, j, a, b):
        d = gcd(i, j)
        return ring.sub(ring.one, ring.mul(power(a, j // d), power(b, i // d)))

    for bs in itertools.product(_nilpotents(ring), repeat=3):
        neg = {j: b for j, b in enumerate(bs, 1) if not ring.is_zero(b)}
        g = LaurentSeries.one(ring)
        for j, b in neg.items():
            g = g * LaurentSeries.from_terms(ring, {0: ring.one, -j: ring.neg(b)})
        assert witt_decompose(g).neg == neg
        window = required_precision(f, g)[0]
        for i in range(window, e * 3 + 1):
            assert all(term(i, j, a, b) == ring.one for j, b in neg.items() for a in elements)
        if neg:
            i = window - 1
            assert any(term(i, j, a, b) != ring.one for j, b in neg.items() for a in elements)
        else:
            assert window == 1


def _terms(ring, rng, depth, top):
    """A unit's coefficients: nilpotent below t^0, a unit at t^0, dense above."""
    terms = {-i: ring.random_nilpotent(rng) for i in range(1, depth + 1)}
    terms[0] = ring.random_unit(rng)
    terms.update({i: ring.random_element(rng) for i in range(1, top)})
    return terms


def _completion(ring, rng, terms, n):
    """Exact data agreeing with ``terms`` below t^n, random above."""
    extra = {i: ring.random_element(rng) for i in range(n, n + 6)}
    return LaurentSeries.from_terms(ring, {**terms, **extra})


@pytest.mark.parametrize("spec", ["F2[e]/(e^4)", "F3[e]/(e^4)", "Q[e]/(e^3)", "Z/27", "Z/81"])
def test_answers_do_not_depend_on_the_unknown_tail(spec):
    ring = parse_ring(spec)
    rng = random.Random(f"tail:{spec}")
    routes = [contou_carrere]
    if ring.has_section:
        routes.append(lambda f, g: res2(dlog2(f, g)))
    answered = 0
    for _ in range(40):
        n = rng.randint(4, 16)
        tf = _terms(ring, rng, rng.randint(1, 3), n)
        tg = _terms(ring, rng, rng.randint(1, 3), n)
        f = LaurentSeries.from_terms(ring, tf, prec=n)
        g = LaurentSeries.from_terms(ring, tg, prec=n)
        completions = [
            (_completion(ring, rng, tf, n), _completion(ring, rng, tg, n)) for _ in range(2)
        ]
        for route in routes:
            try:
                value = route(f, g)
            except PRECISION:
                continue
            answered += 1
            assert all(route(fc, gc) == value for fc, gc in completions)
    assert answered >= 10 * len(routes)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_depth_two_pairs_answer_at_window_16(p):
    """Dense units with a depth-2 nilpotent tail, known below t^(w + 16):
    both routes answer at this first window of the suites."""
    ring = parse_ring(f"F{p}[e]/(e^4)")
    rng = random.Random(f"window16:{p}")

    def unit():
        w = rng.randint(-2, 2)
        terms = _terms(ring, rng, 2, 13)
        return LaurentSeries.from_terms(ring, terms, prec=16).shift(w)

    for _ in range(6):
        f, g = unit(), unit()
        assert res2(dlog2(f, g)) == dlog_element(ring, contou_carrere(f, g))


# -- the f^-1 * df route -------------------------------------------------------


def _inverse_route(f, finv):
    df = d_series(f)
    return OneForm(finv * df.dt, finv * df.de)


def _inverse_route_dlog2(f, g):
    """dlog f ^ dlog g through f^-1 * df; an exact argument's inverse is cut
    at max(DEFAULT_PRECISION, 1 - ell(f) - ell(g) - ell(f^-1) - ell(g^-1))."""
    low = f.inverse().ell + g.inverse().ell
    cap = max(DEFAULT_PRECISION, 1 - f.ell - g.ell - low)

    def inv(s):
        return _split_unit(s).inverse(cap if s.prec == INF else None)

    return wedge(_inverse_route(f, inv(f)), _inverse_route(g, inv(g)))


def _unit(ring, rng):
    w = rng.randint(-2, 2)
    depth = 0 if ring.is_field else rng.choice([0, 1, 2, 3, 8])
    terms = _terms(ring, rng, depth, rng.randint(1, 8))
    prec = INF if rng.random() < 0.4 else rng.randint(3, 18)
    return LaurentSeries.from_terms(ring, terms, prec=prec).shift(w)


@pytest.mark.parametrize(
    "spec", ["F7", "Q", "F2[e]/(e^4)", "F3[e]/(e^3)", "F5[e]/(e^2)", "Q[e]/(e^3)"]
)
def test_dlog_agrees_with_the_inverse_route(spec):
    ring = parse_ring(spec)
    rng = random.Random(f"dlog:{spec}")
    compared = 0
    for _ in range(40):
        f, g = _unit(ring, rng), _unit(ring, rng)
        try:
            want1 = _inverse_route(f, f.inverse())
        except PRECISION:
            pass
        else:
            got1 = dlog(f)
            for a, b in ((got1.dt, want1.dt), (got1.de, want1.de)):
                assert a.agrees_with(b) and a.prec >= b.prec
        try:
            want = _inverse_route_dlog2(f, g).h
        except PRECISION:
            continue
        got = dlog2(f, g).h
        assert got.agrees_with(want) and got.prec >= want.prec
        compared += 1
    assert compared >= 20
