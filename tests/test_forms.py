import random
from math import gcd

import pytest

from ccsym.errors import IndeterminateAtPrecision, NonUnit, UnsupportedRing
from ccsym.forms import (
    AOneForm,
    OneForm,
    TwoForm,
    d_series,
    dlog,
    dlog2,
    dlog_element,
    form_substitute,
    log_square_check,
    map_form,
    res1,
    res2,
    res2_dlog2,
    wedge,
)
from ccsym.randgen import draw_unit, draw_uniformizer, with_precision_retry
from ccsym.rings import (
    IntegersModPrimePower,
    PrimeField,
    RationalField,
    TruncatedPolynomialRing,
    epsilon_map,
    residue_map,
    truncation_map,
)
from ccsym.series import INF, LaurentSeries
from ccsym.symbols import MHatElement, contou_carrere

F3 = PrimeField(3)
F5 = PrimeField(5)
Q = RationalField()
A2 = TruncatedPolynomialRing(F3, "e", 2)
A33 = TruncatedPolynomialRing(F3, "e", 3)  # char | m: no annihilator reduction
F5E3 = TruncatedPolynomialRing(F5, "e", 3)
QE2 = TruncatedPolynomialRing(Q, "e", 2)
EPS = A2.generator()

SQUARE_RINGS = (A2, A33, F5E3, QE2)


def s(ring, terms, prec=INF):
    return LaurentSeries.from_terms(ring, terms, prec=prec)


def test_d_series():
    d = d_series(LaurentSeries.t_power(F5, 2))
    assert d.dt == s(F5, {1: 2}) and d.de.is_zero_series
    d = d_series(LaurentSeries.t_power(A2, 1, EPS))
    assert d.dt == LaurentSeries.constant(A2, EPS)
    assert d.de == LaurentSeries.t_power(A2, 1)
    assert d_series(LaurentSeries.constant(F5, 4)).dt.is_zero_series


def test_d_series_rejects_zpm():
    with pytest.raises(UnsupportedRing):
        d_series(LaurentSeries.one(IntegersModPrimePower(5, 2)))


def test_dlog():
    l = dlog(LaurentSeries.t_power(F5, 1))
    assert l.dt == s(F5, {-1: 1})
    l = dlog((LaurentSeries.one(F5) - LaurentSeries.t_power(F5, 1)).truncate(4))
    # oracle: geometric series -(1 + t + t^2 + ...)
    assert l.dt.agrees_with(s(F5, {0: 4, 1: 4, 2: 4}, prec=3))
    with pytest.raises(NonUnit):
        dlog(LaurentSeries.t_power(A2, 1, EPS))


def test_dlog_element():
    # oracle: ring_inv route, -(1+e) de = (2+2e) de, reduced mod e over F3[e]/(e^2)
    la = dlog_element(A2, A2.sub(A2.one, EPS))
    assert la == AOneForm(A2, A2.from_int(2))
    g3 = A33.generator()
    la = dlog_element(A33, A33.sub(A33.one, g3))
    # -(1+e+e^2); no annihilator reduction since 3 | 3
    want = A33.neg(A33.add(A33.add(A33.one, g3), A33.mul(g3, g3)))
    assert la == AOneForm(A33, want)
    assert dlog_element(F5, 3).is_zero()


def test_dlog_additive():
    rng = random.Random(0)
    for ring in SQUARE_RINGS:
        for _ in range(20):
            a, b = ring.random_unit(rng), ring.random_unit(rng)
            assert dlog_element(ring, ring.mul(a, b)) == dlog_element(ring, a) + dlog_element(ring, b)


def test_wedge():
    alpha = OneForm(LaurentSeries.one(A2), LaurentSeries.zero(A2))  # dt
    beta = OneForm(LaurentSeries.zero(A2), LaurentSeries.one(A2))  # de
    assert wedge(alpha, beta) == TwoForm(LaurentSeries.constant(A2, A2.neg(A2.one)))
    t = LaurentSeries.t_power(A2, 1)
    assert dlog2(t, t).h.is_zero_series


def test_residues():
    assert res1(dlog(LaurentSeries.t_power(F5, 1))) == 1
    for n in range(1, 5):
        assert res1(d_series(LaurentSeries.t_power(F5, -n))) == 0
    assert res2(TwoForm(LaurentSeries.t_power(A2, -1))) == AOneForm(A2, A2.one)
    with pytest.raises(IndeterminateAtPrecision):
        res1(OneForm(s(A2, {0: A2.one}, prec=-2), LaurentSeries.zero(A2)))


def test_res2_linearity_over_ring():
    rng = random.Random(1)
    for ring in SQUARE_RINGS:
        for _ in range(15):
            h = s(ring, {i: ring.random_element(rng) for i in range(-3, 3)}, prec=5)
            om = TwoForm(h)
            a = ring.random_element(rng)
            assert res2(om.series_mul(LaurentSeries.constant(ring, a))) == res2(om).scale(a)


def test_res_vanishing_on_regular_and_polar_parts():
    rng = random.Random(2)
    for ring in SQUARE_RINGS:
        for _ in range(15):
            # only nonnegative support
            reg = s(ring, {i: ring.random_element(rng) for i in range(0, 4)}, prec=6)
            assert res2(TwoForm(reg)).is_zero()
            assert res1(OneForm(reg, reg)) == ring.zero
            # pulled back from A[1/t]: h dt with h = sum a_i t^-i * d(t^-j) shapes
            i, j = rng.randint(0, 3), rng.randint(1, 3)
            pol = LaurentSeries.t_power(ring, -i - j - 1, ring.from_int(-j))
            assert res1(OneForm(pol, LaurentSeries.zero(ring))) == ring.zero


def test_square_example_monomials():
    # f = (1+e)t, g = 2t over F3[e]/(e^2): the value is dlog(1+e) - dlog(2)
    f = LaurentSeries.t_power(A2, 1, A2.add(A2.one, EPS)).truncate(9)
    g = LaurentSeries.t_power(A2, 1, A2.from_int(2)).truncate(9)
    out = res2_dlog2(f, g)
    want = dlog_element(A2, A2.add(A2.one, EPS)) - dlog_element(A2, A2.from_int(2))
    assert out == want


def test_square_example_negative_tail():
    f = (LaurentSeries.one(A2) - LaurentSeries.t_power(A2, 1)).truncate(9)
    g = LaurentSeries.one(A2) - LaurentSeries.t_power(A2, -1, EPS)
    assert res2_dlog2(f, g) == dlog_element(A2, A2.sub(A2.one, EPS))


def test_square_steinberg_shape_vanishes():
    rng = random.Random(3)
    for _ in range(20):
        a, b = A2.random_unit(rng), A2.random_unit(rng)
        f = (LaurentSeries.one(A2) - LaurentSeries.t_power(A2, 1, a)).truncate(10)
        g = (LaurentSeries.one(A2) - LaurentSeries.t_power(A2, 1, b)).truncate(10)
        assert res2_dlog2(f, g).is_zero()


def test_square_random():
    rng = random.Random(4)
    for ring in SQUARE_RINGS:
        for _ in range(25):
            fd, gd = draw_unit(ring, rng), draw_unit(ring, rng)

            def check(prec):
                return res2_dlog2(fd.series(prec), gd.series(prec))

            with_precision_retry(check, start=16)


def test_square_field_degenerate():
    f = s(F5, {0: 2, 1: 1}, prec=9)
    g = s(F5, {-1: 3, 0: 1}, prec=9)
    assert res2_dlog2(f, g).is_zero()
    assert dlog_element(F5, contou_carrere(f, g)).is_zero()


def test_closed_form_identity_vii():
    # deep positive polynomial against a shallow nilpotent tail
    rng = random.Random(5)
    for ring in (A2, A33, F5E3):
        M = ring.nilpotency_index
        for _ in range(10):
            n = rng.randint(1, 3)
            b = ring.random_nilpotent(rng)
            coeffs = {M * n + 1 + i: ring.random_element(rng) for i in range(3)}
            f = LaurentSeries.one(ring) - LaurentSeries.from_terms(ring, coeffs)
            g = LaurentSeries.one(ring) - LaurentSeries.t_power(ring, -n, b)
            assert res2_dlog2(f.truncate(3 * M * n + 8), g).is_zero()


def test_form_substitution_invariance():
    rng = random.Random(6)
    sigma = s(F5, {1: 1, 2: 1}, prec=12)
    l = form_substitute(sigma, dlog(LaurentSeries.t_power(F5, 1).truncate(12)))
    assert res1(l) == 1
    for _ in range(15):
        fd, gd = draw_unit(A2, rng), draw_unit(A2, rng)
        sig = draw_uniformizer(A2, rng, prec=48)

        def check(prec):
            f, g = fd.series(prec), gd.series(prec)
            om = dlog2(f, g)
            a = res2(om)
            b = res2(form_substitute(sig, om))
            c = res2(dlog2(f.substitute(sig), g.substitute(sig)))
            return a, b, c

        a, b, c = with_precision_retry(check, start=20)
        assert a == b == c


def test_base_change_square():
    rng = random.Random(7)
    maps = [
        residue_map(A2),
        epsilon_map(A2, A2, A2.mul(A2.from_int(2), EPS)),
        epsilon_map(A2, F3, 0),
    ]
    for h in maps:
        for _ in range(15):
            f = draw_unit(A2, rng).series(24)
            g = draw_unit(A2, rng).series(24)
            om = dlog2(f, g)
            assert map_form(h, res2(om)) == res2(map_form(h, om))
            al = dlog(f)
            assert h(res1(al)) == res1(map_form(h, al))
    # the residue map sends the generator to zero, so every de-part dies
    h = residue_map(A2)
    f, g = draw_unit(A2, rng).series(24), draw_unit(A2, rng).series(24)
    om, al = dlog2(f, g), dlog(f)
    assert map_form(h, om) == TwoForm(LaurentSeries.zero(F3, om.h.prec))
    assert map_form(h, al) == OneForm(al.dt.map_coefficients(h), LaurentSeries.zero(F3))
    assert map_form(h, res2(om)) == AOneForm.zero(F3)
    # a truncation Z/p^m -> F_p sends no generator: forms cannot follow it
    with pytest.raises(UnsupportedRing):
        map_form(truncation_map(IntegersModPrimePower(5, 2), 1), AOneForm.zero(F5))


def test_levelwise_square_and_compat():
    rng = random.Random(8)
    for n in (1, 2, 3, 4):
        ring = TruncatedPolynomialRing(F3, "x", n)
        for _ in range(10):
            fd, gd = draw_unit(ring, rng), draw_unit(ring, rng)
            e1, e2 = rng.randint(-2, 2), rng.randint(-2, 2)

            def check(prec):
                return log_square_check(
                    MHatElement(ring, e1, fd.series(prec)),
                    MHatElement(ring, e2, gd.series(prec)),
                )

            with_precision_retry(check, start=16)


def test_omega2_of_base_vanishes():
    # univariate A: the two-form part pulled back from A is identically zero
    assert TwoForm(LaurentSeries.zero(A2)).h.is_zero_series
    assert res2(TwoForm(LaurentSeries.zero(A2))).is_zero()
