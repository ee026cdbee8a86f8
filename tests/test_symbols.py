import random
from math import gcd

import pytest

from ccsym.errors import (
    IndeterminateAtPrecision,
    InsufficientPrecision,
    MixedFields,
    NonUnit,
)
from ccsym.randgen import draw_decomposition, draw_steinberg_unit, draw_unit, with_precision_retry
from ccsym.rings import (
    IntegersModPrimePower,
    PrimeField,
    RationalField,
    TruncatedPolynomialRing,
    residue_map,
)
from ccsym.parsing import parse_ring, parse_series
from ccsym.series import INF, LaurentSeries, _split_unit
from ccsym.symbols import (
    KatoValue,
    MHatElement,
    UnitDecomposition,
    contou_carrere,
    kato_residue,
    recompose,
    required_precision,
    witt_decompose,
)

F3 = PrimeField(3)
F5 = PrimeField(5)
A2 = TruncatedPolynomialRing(F3, "e", 2)
A23 = TruncatedPolynomialRing(F3, "e", 3)
EPS = A2.generator()
AX3 = TruncatedPolynomialRing(F5, "x", 3)
X = AX3.generator()


def s(ring, terms, prec=INF):
    return LaurentSeries.from_terms(ring, terms, prec=prec)


def test_decompose_monomial():
    d = witt_decompose(LaurentSeries.t_power(F5, 1))
    assert (d.w, d.a0, d.pos, d.neg, d.prec) == (1, 1, {}, {}, INF)


def test_decompose_polynomial():
    # peel oracle: divide by a0 = 2, then by (1 - t), then by (1 - 2t^2)
    f = s(F5, {0: 2, 1: 3, 2: 1}, prec=3)
    d = witt_decompose(f)
    assert (d.w, d.a0, d.pos, d.neg) == (0, 2, {1: 1, 2: 2}, {})
    assert recompose(d) == f.truncate(3)


def test_decompose_negative_tail():
    g = s(A2, {0: A2.one, -1: A2.neg(EPS)})
    d = witt_decompose(g)
    assert (d.w, d.a0, d.pos, d.neg) == (0, A2.one, {}, {1: EPS})


def test_recompose_empty():
    d = UnitDecomposition(F5, 3, 2, {}, {}, INF)
    assert recompose(d) == LaurentSeries.t_power(F5, 3, 2)


def test_decompose_errors():
    with pytest.raises(NonUnit):
        witt_decompose(s(A2, {-1: EPS}))


def test_roundtrip_random():
    rng = random.Random(0)
    for ring in (A23, A2, IntegersModPrimePower(3, 2)):
        for _ in range(30):
            fd = draw_unit(ring, rng)

            def check(prec):
                f = fd.series(prec)
                return recompose(witt_decompose(f)).agrees_with(f)

            assert with_precision_retry(check, start=12)


def test_coordinates_unique():
    rng = random.Random(1)
    for ring in (A23, TruncatedPolynomialRing(F5, "e", 2)):
        for _ in range(30):
            d = draw_decomposition(ring, rng)
            d2 = witt_decompose(recompose(d))
            assert (d2.w, d2.a0, d2.pos, d2.neg) == (d.w, d.a0, d.pos, d.neg)


def test_decompose_after_deep_split():
    ring = parse_ring("F3[e]/(e^3)")
    f = parse_series(ring, "1 - e*t^-2 + e*t^-1 + t + 2*t^3 + O(t^10)")
    d = witt_decompose(f)
    assert recompose(d).agrees_with(f)
    split = _split_unit(f)
    assert d.prec == f.prec - split.w + split.geom.ell == 6


def test_required_precision():
    f = LaurentSeries.t_power(F5, 1, 2)
    g = LaurentSeries.t_power(F5, 0, 3)
    assert required_precision(f, g) == (1, 1)  # field: no cross terms
    fneg = s(A2, {0: A2.one, -1: A2.neg(EPS)})
    gpos = s(A2, {0: A2.one, 1: A2.one})
    # e = 2 and the f-tail reaches depth 1, so g needs coordinates below 2
    assert required_precision(fneg, gpos) == (1, 2)
    # the unknown t^2 coefficient times e*t^-3 reaches t^-1: no window exists
    fshort = s(A2, {-3: EPS, 0: A2.one}, prec=2)
    with pytest.raises(IndeterminateAtPrecision):
        required_precision(fshort, gpos)


def test_insufficient_precision_is_detected():
    fneg = s(A2, {0: A2.one, -2: EPS})
    gshort = s(A2, {0: A2.one, 1: A2.one, 2: A2.one}, prec=2)
    with pytest.raises(InsufficientPrecision):
        contou_carrere(gshort, fneg)


def test_cc_paper_values():
    assert contou_carrere(
        LaurentSeries.t_power(F5, 1, 2), LaurentSeries.t_power(F5, 1, 3)
    ) == 1
    f = s(A2, {0: A2.one, -1: A2.neg(EPS)})
    g = s(A2, {0: A2.one, 1: A2.neg(A2.one)})
    assert contou_carrere(f, g) == A2.add(A2.one, EPS)
    assert contou_carrere(LaurentSeries.one(A2), g) == A2.one


def test_cc_closed_forms():
    rng = random.Random(2)
    one = LaurentSeries.one
    tp = LaurentSeries.t_power
    for ring in (A2, A23, IntegersModPrimePower(5, 2), IntegersModPrimePower(2, 2)):
        for _ in range(40):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            a = ring.random_element(rng)
            an, bn = ring.random_nilpotent(rng), ring.random_nilpotent(rng)
            b = ring.random_element(rng)
            d = gcd(n, m)
            assert contou_carrere(one(ring) - tp(ring, -n, an), one(ring) - tp(ring, -m, bn)) == ring.one
            assert contou_carrere(one(ring) - tp(ring, n, a), one(ring) - tp(ring, m, b)) == ring.one
            want = ring.pow(
                ring.sub(ring.one, ring.mul(ring.pow(a, m // d), ring.pow(bn, n // d))), d
            )
            assert contou_carrere(one(ring) - tp(ring, n, a), one(ring) - tp(ring, -m, bn)) == want
            want4 = ring.pow(
                ring.sub(ring.one, ring.mul(ring.pow(an, m // d), ring.pow(b, n // d))), -d
            )
            got4 = contou_carrere(one(ring) - tp(ring, -n, an), one(ring) - tp(ring, m, b))
            assert got4 == want4
            # (iii) and (iv) are antisymmetric mirrors; check the consistency
            mirror = contou_carrere(one(ring) - tp(ring, m, b), one(ring) - tp(ring, -n, an))
            assert ring.mul(mirror, got4) == ring.one


def test_cc_monomials():
    rng = random.Random(3)
    for ring in (F5, A23):
        for _ in range(25):
            n, m = rng.randint(-4, 4), rng.randint(-4, 4)
            a, b = ring.random_unit(rng), ring.random_unit(rng)
            got = contou_carrere(
                LaurentSeries.t_power(ring, n, a), LaurentSeries.t_power(ring, m, b)
            )
            want = ring.mul(
                ring.pow(ring.neg(ring.one), (n * m) & 1),
                ring.mul(ring.pow(a, m), ring.pow(b, -n)),
            )
            assert got == want


def test_bilinearity_antisymmetry():
    rng = random.Random(4)
    for ring in (A23, IntegersModPrimePower(3, 2)):
        for _ in range(40):
            fd, gd, hd = (draw_unit(ring, rng) for _ in range(3))

            def check(prec):
                f, g, h = fd.series(prec), gd.series(prec), hd.series(prec)
                assert contou_carrere(f * g, h) == ring.mul(
                    contou_carrere(f, h), contou_carrere(g, h)
                )
                assert contou_carrere(f, g * h) == ring.mul(
                    contou_carrere(f, g), contou_carrere(f, h)
                )
                assert ring.mul(contou_carrere(f, g), contou_carrere(g, f)) == ring.one
                return True

            assert with_precision_retry(check, start=24)


def test_steinberg():
    rng = random.Random(5)
    for ring in (A2, A23):
        for _ in range(60):
            fd = draw_steinberg_unit(ring, rng)

            def check(prec):
                f = fd.series(prec)
                return contou_carrere(f, LaurentSeries.one(ring) - f)

            assert with_precision_retry(check, start=24) == ring.one


def test_uniformizer_invariance():
    rng = random.Random(6)
    for _ in range(25):
        fd, gd = draw_unit(A23, rng), draw_unit(A23, rng)
        sigma = s(
            A23,
            {1: A23.random_unit(rng), 2: A23.random_element(rng), 3: A23.random_element(rng)},
            prec=48,
        )

        def check(prec):
            f, g = fd.series(prec), gd.series(prec)
            return contou_carrere(f, g), contou_carrere(
                f.substitute(sigma), g.substitute(sigma)
            )

        a, b = with_precision_retry(check, start=20)
        assert a == b


def test_functoriality():
    rng = random.Random(7)
    h = residue_map(A23)
    for _ in range(30):
        f = draw_unit(A23, rng).series(30)
        g = draw_unit(A23, rng).series(30)
        assert h(contou_carrere(f, g)) == contou_carrere(
            f.map_coefficients(h), g.map_coefficients(h)
        )


def test_field_case_is_tame_symbol():
    # over a field the pairing collapses to (-1)^(w v) a0^v b0^-w
    rng = random.Random(8)
    for _ in range(30):
        f = draw_unit(F5, rng).series(10)
        g = draw_unit(F5, rng).series(10)
        df, dg = witt_decompose(f), witt_decompose(g)
        want = F5.mul(
            F5.pow(F5.neg(F5.one), (df.w * dg.w) & 1),
            F5.mul(F5.pow(df.a0, dg.w), F5.pow(dg.a0, -df.w)),
        )
        assert contou_carrere(f, g) == want


# -- Kato residue symbols -----------------------------------------------------


def test_deg():
    u = MHatElement(AX3, 0, s(AX3, {3: AX3.one, 4: AX3.one}))
    assert u.deg() == 3
    assert MHatElement(AX3, 0, LaurentSeries.one(AX3)).deg() == 0
    v = MHatElement(AX3, 0, s(AX3, {-2: AX3.one, 5: X}))
    assert v.deg() == -2


def test_deg_additive():
    rng = random.Random(9)
    for _ in range(25):
        u = MHatElement(AX3, 0, draw_unit(AX3, rng).series(10))
        v = MHatElement(AX3, 0, draw_unit(AX3, rng).series(10))
        assert (u * v).deg() == u.deg() + v.deg()


def test_kato_frozen_values():
    one_z = LaurentSeries.one(AX3)
    z = LaurentSeries.t_power(AX3, 1)
    kv = kato_residue(MHatElement(AX3, 1, one_z), MHatElement(AX3, 0, z))
    assert (kv.exponent, kv.unit) == (1, AX3.one)
    kv = kato_residue(
        MHatElement(AX3, 0, z.scalar_mul(AX3.from_int(2))),
        MHatElement(AX3, 0, z.scalar_mul(AX3.from_int(3))),
    )
    assert (kv.exponent, kv.unit) == (0, AX3.one)
    f = MHatElement(AX3, 0, s(AX3, {0: AX3.one, 1: AX3.from_int(-2)}))
    g = MHatElement(AX3, 0, s(AX3, {0: AX3.one, -1: AX3.neg(X)}))
    kv = kato_residue(f, g)
    assert (kv.exponent, kv.unit) == (0, AX3.sub(AX3.one, AX3.mul(AX3.from_int(2), X)))


def test_kato_x_exponent_bookkeeping():
    # {x z^n, z^m} = (-1)^(nm) x^m
    for n in range(1, 5):
        for m in range(1, 5):
            kv = kato_residue(
                MHatElement(AX3, 1, LaurentSeries.t_power(AX3, n)),
                MHatElement(AX3, 0, LaurentSeries.t_power(AX3, m)),
            )
            assert kv.exponent == m
            assert kv.unit == AX3.pow(AX3.from_int(-1), (n * m) & 1)


def test_kato_constant_first_argument():
    # {c, u} = c^deg(u) for constants c of the one-variable field
    rng = random.Random(10)
    for _ in range(25):
        e1 = rng.randint(-2, 2)
        c_unit = AX3.random_unit(rng)
        u = draw_unit(AX3, rng)

        def check(prec):
            g = MHatElement(AX3, 0, u.series(prec))
            c = MHatElement(AX3, e1, LaurentSeries.constant(AX3, c_unit))
            kv = kato_residue(c, g)
            d = g.deg()
            return kv, d

        kv, d = with_precision_retry(check, start=16)
        assert kv == KatoValue(AX3, e1 * d, AX3.pow(c_unit, d))


def test_kato_mixed_fields_rejected():
    other = TruncatedPolynomialRing(F3, "x", 3)
    with pytest.raises(MixedFields):
        kato_residue(
            MHatElement(AX3, 0, LaurentSeries.one(AX3)),
            MHatElement(other, 0, LaurentSeries.one(other)),
        )
    with pytest.raises(MixedFields):
        MHatElement(A2, 0, LaurentSeries.one(A2))  # generator is not "x"


def test_kato_precision_coherence():
    rng = random.Random(11)
    from ccsym.rings import epsilon_map

    for _ in range(20):
        fd, gd = draw_unit(AX3, rng), draw_unit(AX3, rng)
        e1, e2 = rng.randint(-2, 2), rng.randint(-2, 2)

        def check(prec):
            f = MHatElement(AX3, e1, fd.series(prec))
            g = MHatElement(AX3, e2, gd.series(prec))
            kv = kato_residue(f, g)
            for lower in (1, 2):
                target = TruncatedPolynomialRing(F5, "x", lower)
                drop = epsilon_map(
                    AX3, target, target.zero if lower == 1 else target.generator()
                )
                assert kato_residue(f.map_level(drop), g.map_level(drop)) == kv.map_level(drop)
            return True

        assert with_precision_retry(check, start=16)
