import random

import pytest

from ccsym.errors import (
    CCSymError,
    IndeterminateAtPrecision,
    NonUnit,
    NotAUniformizer,
)
from ccsym.rings import PrimeField, TruncatedPolynomialRing, residue_map
from ccsym.parsing import parse_element, parse_ring, parse_series
from ccsym.series import INF, LaurentSeries, _divide_binomial, _split_unit

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
A2 = TruncatedPolynomialRing(F3, "e", 2)
F5E = TruncatedPolynomialRing(F5, "e", 2)
EPS = A2.generator()


def s(ring, terms, prec=INF):
    return LaurentSeries.from_terms(ring, terms, prec=prec)


def test_mul_examples():
    one, t = LaurentSeries.one(F5), LaurentSeries.t_power(F5, 1)
    prod = (one + t).truncate(5) * (one - t).truncate(5)
    assert prod == s(F5, {0: 1, 2: 4}, prec=5)
    h = s(A2, {-1: EPS})
    sq = h * h
    assert sq.is_zero_series and sq.prec == INF
    assert s(F5, {-1: 1}, 3) + s(F5, {1: 1}, 3) == s(F5, {-1: 1, 1: 1}, 3)


@pytest.mark.parametrize("ring", [F7, A2, parse_ring("Q[e]/(e^3)")], ids=str)
def test_sum_matches_coefficientwise_reference(ring):
    rng = random.Random(f"sum:{ring}")
    for _ in range(200):
        a, b = (
            s(ring, {i: ring.random_element(rng) for i in range(lo, lo + rng.randint(0, 6))},
              rng.choice([INF, rng.randint(-4, 10)]))
            for lo in (rng.randint(-5, 5), rng.randint(-5, 5))
        )
        total = a + b
        assert total.prec == min(a.prec, b.prec)
        for i in range(-6, min(total.prec, 12)):
            assert total.coeff(i) == ring.add(a.coeff(i), b.coeff(i))


def test_precision_propagation():
    a = s(F5, {0: 1}, 5)
    b = s(F5, {-2: 1}, 4)
    assert (a * b).prec == 3  # min(-2 + 5, 0 + 4)
    assert (a + b).prec == 4
    assert a.derivative().prec == 4
    assert b.shift(3).prec == 7


def test_unit_detection():
    assert s(A2, {0: A2.one, -1: EPS}).is_unit()
    assert s(A2, {-1: EPS}).is_unit() is False
    assert LaurentSeries.t_power(F5, -1).is_unit()
    with pytest.raises(IndeterminateAtPrecision):
        s(A2, {0: EPS}, prec=3).is_unit()


def test_winding_number():
    assert s(F5, {1: 2, 2: 1}).winding_number() == 1
    assert s(A2, {0: A2.one, -1: A2.neg(EPS)}).winding_number() == 0
    assert s(F5E, {-1: (0, 1), 2: (3, 0)}).winding_number() == 2
    with pytest.raises(NonUnit):
        s(A2, {-1: EPS}).winding_number()


def test_inverse():
    one, t = LaurentSeries.one(F5), LaurentSeries.t_power(F5, 1)
    inv = (one - t).truncate(3).inverse()
    assert inv == s(F5, {0: 1, 1: 1, 2: 1}, prec=3)
    u = s(A2, {0: A2.one, -1: A2.neg(EPS)})
    ui = u.inverse()
    assert ui == s(A2, {0: A2.one, -1: EPS})
    assert u * ui == LaurentSeries.one(A2)
    with pytest.raises(NonUnit):
        LaurentSeries.t_power(A2, 1, EPS).inverse()


def test_inverse_random():
    rng = random.Random(0)
    for ring in (F7, A2, F5E):
        for _ in range(40):
            terms = {i: ring.random_element(rng) for i in range(5)}
            terms[0] = ring.random_unit(rng)
            if not ring.is_field:
                terms[-1] = ring.random_nilpotent(rng)
            f = s(ring, terms, prec=8).shift(rng.randint(-2, 2))
            g = f.inverse()
            assert (f * g).agrees_with(LaurentSeries.one(ring))


def test_inverse_after_deep_split():
    # five peeled factors, depths summing to 9: one product with G loses only 4
    ring = parse_ring("F3[e]/(e^3)")
    f = parse_series(ring, "1 - e*t^-2 + e*t^-1 + t + 2*t^3 + O(t^10)")
    split = _split_unit(f)
    neg = {i: parse_element(ring, a) for i, a in {1: "e+e^2", 2: "e+2*e^2", 3: "e^2"}.items()}
    assert split.neg == neg and split.geom.ell == -4
    h_prec = f.prec - split.w + split.geom.ell
    assert split.h.prec == h_prec == 6
    inv = f.inverse()
    assert (f * inv).agrees_with(LaurentSeries.one(ring))
    assert inv.prec == h_prec + split.geom.ell - split.w == 2


def test_divide_binomial_rejects_unit():
    with pytest.raises(CCSymError):
        _divide_binomial(A2, -1, A2.one, [A2.one])


def test_derivative():
    assert LaurentSeries.t_power(F5, 2).derivative() == s(F5, {1: 2})
    assert LaurentSeries.t_power(F5, -1).derivative() == s(F5, {-2: 4})
    assert LaurentSeries.constant(A2, EPS).derivative().is_zero_series


def test_derivative_leibniz():
    rng = random.Random(1)
    for _ in range(30):
        f = s(F7, {i: rng.randrange(7) for i in range(-2, 4)}, prec=6)
        g = s(F7, {i: rng.randrange(7) for i in range(-1, 4)}, prec=6)
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        assert lhs.agrees_with(rhs)


def test_substitute():
    t = LaurentSeries.t_power(F5, 1)
    sigma = s(F5, {1: 1, 2: 1})
    assert t.substitute(sigma) == sigma
    # the inverse example: exact sigma, cut window
    out = LaurentSeries.t_power(F5, -1).substitute(s(F5, {1: 1, 2: 4})).truncate(2)
    assert out == s(F5, {-1: 1, 0: 1, 1: 1}, prec=2)
    with pytest.raises(NotAUniformizer):
        t.substitute(s(F5, {0: 1, 1: 1}))
    with pytest.raises(NotAUniformizer):
        t.substitute(s(F5, {1: 0, 2: 1}))
    with pytest.raises(NotAUniformizer):
        LaurentSeries.t_power(A2, 1).substitute(LaurentSeries.t_power(A2, 1, EPS))


def test_substitute_pole_below_window():
    # t^-3 stores one coefficient; the t^-2 and t^-1 slots lie past its end
    sigma = parse_series(F5, "t + t^2")
    out = parse_series(F5, "t^-3").substitute(sigma).truncate(5)
    assert out.ell == -3 and out.agrees_with(sigma ** -3)


def test_substitute_pole_keeps_requested_window():
    # sigma^-k is known to O(t^(N-k+1)) from sigma^-1 known to O(t^N); with
    # N = prec + depth every power reaches the requested window
    sigma = parse_series(F5, "t + t^2")
    out = parse_series(F5, "t^-3").substitute(sigma).truncate(5)
    assert out.prec == 5 and out == (sigma.inverse(prec=40) ** 3).truncate(5)
    rng = random.Random(4)
    for _ in range(20):
        depth = rng.randint(1, 5)
        prec = rng.randint(1 - depth, 8)
        f = s(F7, {i: rng.randrange(7) for i in range(-depth, 4)})
        sigma = s(F7, {1: rng.randrange(1, 7), 2: rng.randrange(7), 3: rng.randrange(7)})
        sig_inv = sigma.inverse(prec=prec + 40)
        exact = LaurentSeries.zero(F7)
        for i in range(f.ell, f.end()):
            power = sig_inv ** -i if i < 0 else sigma ** i
            exact = exact + power.scalar_mul(f.coeff(i))
        out = f.substitute(sigma).truncate(prec)
        assert out.prec == prec and out == exact.truncate(prec)


def test_substitute_at_or_below_the_pole_order():
    # f(sigma) has order >= ell(f), so a window ending there is known to be zero
    sigma = parse_series(F7, "t + t^2")
    assert parse_series(F7, "t^-1 + 1").substitute(sigma).truncate(-1) == LaurentSeries.zero(F7, -1)
    rng = random.Random(11)
    for _ in range(20):
        depth = rng.randint(1, 4)
        terms = {i: rng.randrange(7) for i in range(1 - depth, 3)}
        terms[-depth] = rng.randrange(1, 7)
        f = s(F7, terms)
        sigma = s(F7, {1: rng.randrange(1, 7), 2: rng.randrange(7), 3: rng.randrange(7)})
        full = f.substitute(sigma)
        lead = F7.mul(f.coeff(f.ell), F7.pow(sigma.coeff(1), f.ell))
        assert full.ell == f.ell and full.coeff(f.ell) == lead, (f, sigma)
        for prec in range(f.ell - 2, f.ell + 1):
            assert full.truncate(prec) == LaurentSeries.zero(F7, prec), (f, sigma, prec)


# f(sigma) printed with its O-term: poles, cut f and sigma known to O(t^N)
SUBSTITUTE_PINS = [
    ("F5", "t^-1", "t + 4*t^2 + O(t^6)", "t^-1+1+t+t^2+t^3+O(t^4)"),
    ("F7", "2*t^-2 + 3 + t + O(t^4)", "3*t + t^2 + O(t^8)", "t^-2+4*t^-1+1+4*t^2+3*t^3+O(t^4)"),
    ("F3[e]/(e^2)", "e*t^-2 + t^-1 + 1 + O(t^3)", "(1+e)*t + e*t^2 + O(t^7)",
     "e*t^-2+(1+2*e)*t^-1+1+2*e+O(t^3)"),
    ("Q", "1/2*t^-1 + t^2", "2*t - t^3 + O(t^5)", "1/4*t^-1+1/8*t+4*t^2+O(t^3)"),
    ("Q[e]/(e^2)", "(1+e)*t^-3 + O(t^0)", "t + e*t^2 + O(t^6)", "(1+e)*t^-3-3*e*t^-2+O(t^0)"),
    ("Z/9", "3*t^-2 + 1 + O(t^5)", "2*t + 3*t^2 + O(t^8)", "3*t^-2+1+O(t^5)"),
    ("F2[e]/(e^3)", "t^-4 + e*t + O(t^2)", "t + t^2 + O(t^16)", "t^-4+1+e*t+O(t^2)"),
    ("Z/25", "t^-1 + 5*t + O(t^6)", "t + 5*t^3 + O(t^9)", "t^-1+O(t^6)"),
    ("F5", "1 + t + t^2", "2*t + O(t^4)", "1+2*t+4*t^2+O(t^4)"),
    ("F5", "O(t^3)", "t", "O(t^3)"),
    # an exact sigma: sigma^-1 is expanded below DEFAULT_PRECISION
    ("F5", "t^-2 + t", "t + t^2",
     "t^-2+3*t^-1+3+2*t+t^2+4*t^3+2*t^4+2*t^5+4*t^6+t^8+3*t^9+3*t^10+t^11"
     "+4*t^13+2*t^14+2*t^15+4*t^16+t^18+3*t^19+3*t^20+t^21+O(t^22)"),
]


@pytest.mark.parametrize("ring, f, sigma, expected", SUBSTITUTE_PINS)
def test_substitute_pinned_values(ring, f, sigma, expected):
    ring = parse_ring(ring)
    assert parse_series(ring, f).substitute(parse_series(ring, sigma)).format() == expected


def test_substitute_multiplicative_and_winding():
    rng = random.Random(2)
    for _ in range(20):
        f = s(F7, {i: rng.randrange(7) for i in range(-2, 5)}, prec=8)
        g = s(F7, {i: rng.randrange(7) for i in range(-1, 5)}, prec=8)
        sigma = s(
            F7,
            {1: rng.randrange(1, 7), 2: rng.randrange(7), 3: rng.randrange(7)},
            prec=10,
        )
        lhs = (f * g).substitute(sigma)
        rhs = f.substitute(sigma) * g.substitute(sigma)
        assert lhs.agrees_with(rhs)
        try:
            w = f.winding_number()
        except NonUnit:
            continue
        assert f.substitute(sigma).winding_number() == w
        tau = sigma.substitute(
            s(F7, {1: rng.randrange(1, 7), 2: rng.randrange(7)}, prec=10)
        )
        assert tau.winding_number() == 1 and tau.ell >= 1


def test_map_coefficients():
    h = residue_map(A2)
    f = s(A2, {-1: EPS, 0: A2.one, 1: A2.one})
    out = f.map_coefficients(h)
    assert out == s(F3, {0: 1, 1: 1})
    rng = random.Random(3)
    for _ in range(25):
        f = s(A2, {i: A2.random_element(rng) for i in range(-2, 4)}, prec=7)
        g = s(A2, {i: A2.random_element(rng) for i in range(-1, 4)}, prec=7)
        assert (f * g).map_coefficients(h).agrees_with(
            f.map_coefficients(h) * g.map_coefficients(h)
        )
        assert (f + g).map_coefficients(h) == f.map_coefficients(h) + g.map_coefficients(h)
        assert f.derivative().map_coefficients(h) == f.map_coefficients(h).derivative()


def test_unit_multiplicativity():
    rng = random.Random(4)
    for _ in range(30):
        terms_f = {i: A2.random_element(rng) for i in range(-1, 4)}
        terms_g = {i: A2.random_element(rng) for i in range(-1, 4)}
        f, g = s(A2, terms_f, 8), s(A2, terms_g, 8)
        try:
            uf, ug = f.is_unit(), g.is_unit()
        except IndeterminateAtPrecision:
            continue
        try:
            assert (f * g).is_unit() == (uf and ug)
        except IndeterminateAtPrecision:
            assert not (uf and ug)


def test_coeff_out_of_precision():
    f = s(F5, {0: 1}, prec=3)
    assert f.coeff(2) == 0
    with pytest.raises(IndeterminateAtPrecision):
        f.coeff(3)


def test_format_roundtrip():
    from ccsym.parsing import parse_series

    rng = random.Random(5)
    for ring in (F5, A2, F5E):
        for _ in range(30):
            terms = {i: ring.random_element(rng) for i in range(-3, 4)}
            prec = rng.choice([INF, 5, 9])
            f = s(ring, terms, prec)
            assert parse_series(ring, f.format()) == f
