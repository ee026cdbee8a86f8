import random

import pytest

from ccsym import projline
from ccsym.errors import CCSymError, NonZeroSum, SectionCollision, UnsupportedRing
from ccsym.forms import AOneForm
from ccsym.projline import (
    GlobalTwoForm,
    SectionPoint,
    SplitRationalFunction,
    _linear_power,
    anderson_romo_check,
    realize_residues,
    residue_sum_check,
    tame_symbol_at_point,
    weil_check,
)
from ccsym.parsing import parse_element, parse_ring
from ccsym.randgen import draw_sections, draw_split_pair
from ccsym.rings import (
    IntegersModPrimePower,
    PrimeField,
    RationalField,
    TruncatedPolynomialRing,
    residue_map,
)
from ccsym.series import INF, LaurentSeries
from ccsym.symbols import contou_carrere

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
Q = RationalField()
A2 = TruncatedPolynomialRing(F3, "e", 2)
EPS = A2.generator()
INF_PT = SectionPoint.infinity()


def test_local_expansion_affine():
    f = SplitRationalFunction(F5, factors=[(1, 1)])
    assert f.local_expansion(SectionPoint.affine(0), 3) == LaurentSeries.from_terms(
        F5, {0: 4, 1: 1}
    )


def test_local_expansion_infinity():
    f = SplitRationalFunction(F5, factors=[(1, 1)])
    le = f.local_expansion(INF_PT, 3)
    assert le.agrees_with(LaurentSeries.from_terms(F5, {-1: 1, 0: 4}))


def test_local_expansion_nilpotent_offset():
    f = SplitRationalFunction(A2, factors=[(EPS, 1), (A2.zero, -1)])
    le = f.local_expansion(SectionPoint.affine(A2.zero), 4)
    assert le == LaurentSeries.from_terms(A2, {0: A2.one, -1: A2.neg(EPS)})


def test_local_expansion_is_unit():
    rng = random.Random(0)
    for ring in (F5, A2):
        for _ in range(20):
            f, g = draw_split_pair(ring, rng)
            for v in f.section_values() + [None]:
                pt = INF_PT if v is None else SectionPoint.affine(v)
                assert f.local_expansion(pt, 6).is_unit()


def test_tame_symbol_values():
    x = SplitRationalFunction(F5, factors=[(0, 1)])
    one_minus_x = SplitRationalFunction(F5, constant=4, factors=[(1, 1)])
    assert tame_symbol_at_point(x, one_minus_x, SectionPoint.affine(0)) == 1
    assert tame_symbol_at_point(x, x, SectionPoint.affine(0)) == 4
    assert tame_symbol_at_point(x, one_minus_x, SectionPoint.affine(3)) == 1
    with pytest.raises(UnsupportedRing):
        tame_symbol_at_point(
            SplitRationalFunction(A2), SplitRationalFunction(A2), SectionPoint.affine(A2.zero)
        )


def test_tame_symbol_matches_series_route():
    rng = random.Random(1)
    for ring in (F5, F7, Q):
        for _ in range(25):
            f, g = draw_split_pair(ring, rng)
            pts = [SectionPoint.affine(v) for v in dict.fromkeys(f.section_values() + g.section_values())]
            pts.append(INF_PT)
            for pt in pts:
                direct = tame_symbol_at_point(f, g, pt)
                series = contou_carrere(f.local_expansion(pt, 8), g.local_expansion(pt, 8))
                assert direct == series


def test_weil_frozen_values():
    f = SplitRationalFunction(F7, factors=[(1, 1), (2, -1)])
    g = SplitRationalFunction(F7, factors=[(3, 1)])
    r = weil_check(f, g)
    per = {pt.format(F7): v for pt, v in r.per_point}
    assert per == {"1": 3, "2": 6, "3": 2, "inf": 1}
    assert r.passed


def test_weil_constant():
    g = SplitRationalFunction(F7, factors=[(3, 1), (5, -2)])
    assert weil_check(SplitRationalFunction(F7, constant=4), g).passed


def test_weil_random():
    rng = random.Random(2)
    for ring in (F3, F5, F7, Q):
        for _ in range(40):
            f, g = draw_split_pair(ring, rng)
            assert weil_check(f, g).passed


def test_ar_steinberg_instance():
    x = SplitRationalFunction(A2, factors=[(A2.zero, 1)])
    one_minus_x = SplitRationalFunction(A2, constant=A2.neg(A2.one), factors=[(A2.one, 1)])
    assert anderson_romo_check(x, one_minus_x).passed


def test_ar_nilpotent_sections():
    f = SplitRationalFunction(A2, factors=[(EPS, 1)])
    g = SplitRationalFunction(A2, factors=[(A2.one, 1)])
    r = anderson_romo_check(f, g)
    assert r.passed
    per = {pt.format(A2): v for pt, v in r.per_point}
    assert per["e"] == A2.inv(A2.sub(EPS, A2.one))


def test_ar_collision_rejected():
    f = SplitRationalFunction(A2, factors=[(EPS, 1)])
    g = SplitRationalFunction(A2, factors=[(A2.zero, 1)])
    with pytest.raises(SectionCollision):
        anderson_romo_check(f, g)


def test_ar_random_and_specialization():
    rng = random.Random(3)
    rings = (
        A2,
        TruncatedPolynomialRing(F5, "e", 2),
        TruncatedPolynomialRing(F3, "e", 3),
    )
    for ring in rings:
        h = residue_map(ring)
        k = ring.residue_field
        for _ in range(25):
            f, g = draw_split_pair(ring, rng)
            r = anderson_romo_check(f, g)
            assert r.passed
            fk = SplitRationalFunction(
                k, h(f.constant), [(h(s), n) for s, n in f.factors.items()]
            )
            gk = SplitRationalFunction(
                k, h(g.constant), [(h(s), n) for s, n in g.factors.items()]
            )
            rk = weil_check(fk, gk)
            assert rk.passed
            reduced = {pt.format(k): v for pt, v in rk.per_point}
            for pt, v in r.per_point:
                key = "inf" if pt.at_infinity else k.format_element(h(pt.value))
                assert reduced[key] == h(v)


def test_residue_at_section():
    om = GlobalTwoForm.simple_poles(A2, {A2.one: AOneForm(A2, A2.one)})
    assert om.residue_at_section(SectionPoint.affine(A2.one)) == AOneForm(A2, A2.one)
    assert om.residue_at_section(INF_PT) == AOneForm(A2, A2.neg(A2.one))
    assert om.residue_at_section(SectionPoint.affine(A2.zero)).is_zero()


def test_residue_sum():
    rng = random.Random(4)
    for ring in (A2, TruncatedPolynomialRing(F5, "e", 3)):
        for _ in range(20):
            sections = draw_sections(ring, rng, rng.randint(1, 4))
            residues = {v: AOneForm(ring, ring.random_element(rng)) for v in sections}
            om = GlobalTwoForm.simple_poles(ring, residues)
            assert residue_sum_check(om).passed


def test_residue_sum_with_higher_terms():
    om = GlobalTwoForm(
        A2,
        poles={
            A2.one: {1: AOneForm(A2, EPS), 2: AOneForm(A2, A2.one)},
            A2.from_int(2): {1: AOneForm(A2, A2.one)},
        },
        tail=(AOneForm(A2, A2.one), AOneForm(A2, EPS)),
    )
    assert residue_sum_check(om).passed


def test_residue_coordinate_invariance():
    # replacing t = x - s by a uniformizer leaves the residue unchanged
    from ccsym.forms import form_substitute, res2
    from ccsym.randgen import draw_uniformizer

    rng = random.Random(5)
    om = GlobalTwoForm.simple_poles(
        A2, {A2.one: AOneForm(A2, A2.one), A2.zero: AOneForm(A2, EPS)}
    )
    for _ in range(10):
        sig = draw_uniformizer(A2, rng, prec=16)
        local = om.local_expansion(SectionPoint.affine(A2.one), 12)
        assert res2(form_substitute(sig, local)) == res2(local)


def test_realize_residues_roundtrip():
    asgn = {
        SectionPoint.affine(A2.one): AOneForm(A2, A2.one),
        INF_PT: AOneForm(A2, A2.neg(A2.one)),
    }
    om = realize_residues(A2, asgn)
    for pt, eta in asgn.items():
        assert om.residue_at_section(pt) == eta
    assert residue_sum_check(om).passed
    empty = realize_residues(A2, {})
    assert residue_sum_check(empty).passed
    with pytest.raises(NonZeroSum):
        realize_residues(A2, {SectionPoint.affine(A2.one): AOneForm(A2, A2.one)})


def test_wrong_residue_at_infinity_is_a_nonzero_sum():
    """A dict keyed by SectionPoint holds one residue at infinity, so a wrong
    one is caught by the sum alone."""
    one = AOneForm(A2, A2.one)
    affine = {SectionPoint.affine(A2.one): one, SectionPoint.affine(A2.from_int(2)): one}
    implied = -(one + one)
    for wrong in (one + one, AOneForm.zero(A2)):
        assert wrong != implied
        asgn = {**affine, INF_PT: implied, SectionPoint.infinity(): wrong}
        assert len(asgn) == 3
        with pytest.raises(NonZeroSum, match="^residue assignment does not sum to zero$"):
            realize_residues(A2, asgn)
    om = realize_residues(A2, {**affine, INF_PT: implied})
    assert om.residue_at_section(INF_PT) == implied


def test_global_form_collision_rejected():
    with pytest.raises(SectionCollision):
        GlobalTwoForm.simple_poles(
            A2, {A2.zero: AOneForm(A2, A2.one), EPS: AOneForm(A2, A2.one)}
        )


def _power_by_inverse(ring, s, n, point, rel_prec):
    """(x - s)^n as it was expanded before the binomial series: invert the
    base through the unit split, raise it to the power -n, shift."""
    if point.at_infinity:
        terms, shift = {0: ring.one, 1: ring.neg(s)}, -n
    elif point.value == s:
        return LaurentSeries.t_power(ring, n)
    else:
        terms, shift = {0: ring.sub(point.value, s), 1: ring.one}, 0
    base = LaurentSeries.from_terms(ring, terms)
    if n < 0:
        base, n = base.inverse(prec=rel_prec - base.winding_number()), -n
    return (base**n).shift(shift)


def _outcome(expand, *args):
    try:
        return expand(*args), None
    except CCSymError as exc:
        return None, (type(exc), str(exc))


BINOMIAL_RINGS = (
    F5,
    F7,
    Q,
    A2,
    TruncatedPolynomialRing(PrimeField(2), "e", 4),
    TruncatedPolynomialRing(F5, "e", 3),
    TruncatedPolynomialRing(Q, "e", 3),
    IntegersModPrimePower(2, 3),
    IntegersModPrimePower(3, 2),
    IntegersModPrimePower(3, 3),
)


@pytest.mark.parametrize("ring", BINOMIAL_RINGS, ids=str)
def test_binomial_series_matches_the_inverse_route(ring):
    rng = random.Random(f"binomial:{ring}")
    for rep in range(4):
        s = ring.zero if rep == 0 else ring.random_element(rng)
        points = (
            SectionPoint.affine(ring.add(s, ring.random_unit(rng))),
            SectionPoint.affine(ring.add(s, ring.random_nilpotent(rng))),
            SectionPoint.affine(s),
            INF_PT,
        )
        for pt in points:
            nilpotent_offset = not pt.at_infinity and not ring.is_unit(ring.sub(pt.value, s))
            unit_base = ring.is_unit(s if pt.at_infinity else ring.sub(pt.value, s))
            for n in range(-7, 8):
                for rel_prec in (1, 2, 5, 9):
                    old, old_err = _outcome(_power_by_inverse, ring, s, n, pt, rel_prec)
                    new, new_err = _outcome(_linear_power, ring, s, n, pt, rel_prec)
                    if nilpotent_offset and n < 0 and pt.value != s:
                        # an exact finite sum, which the inverse route cut
                        assert new_err is None and new.prec == INF
                        assert old_err is not None or new.agrees_with(old)
                        continue
                    if unit_base and n >= rel_prec:
                        # the exact power of a unit base, cut to the terms asked for
                        assert old_err is new_err is None and old.prec == INF
                        assert new.prec == new.ell + rel_prec and new.agrees_with(old)
                        continue
                    assert new_err == old_err
                    if old_err is None:
                        assert (new.ell, new.prec, new.coeffs, new.format()) == (
                            old.ell,
                            old.prec,
                            old.coeffs,
                            old.format(),
                        )


def test_binomial_series_values():
    one_e = A2.add(A2.one, EPS)
    assert str(_linear_power(F5, 3, -3, SectionPoint.affine(0), 4)) == "2+2*t+3*t^2+O(t^4)"
    # an exact monomial at infinity is still cut at the relative precision
    assert str(_linear_power(A2, A2.zero, -2, INF_PT, 3)) == "t^2+O(t^5)"
    assert str(_linear_power(A2, one_e, -2, INF_PT, 3)) == "t^2+(2+2*e)*t^3+O(t^5)"
    assert str(_linear_power(A2, A2.zero, 3, SectionPoint.affine(EPS), 2)) == "t^3"


def test_negative_power_at_a_nilpotent_offset_is_exact():
    # (e + t)^n = t^n (1 + e t^-1)^n, a finite sum for every n
    assert str(_linear_power(A2, A2.zero, -2, SectionPoint.affine(EPS), 3)) == "e*t^-3+t^-2"
    one_e = A2.add(A2.one, EPS)
    one_2e = A2.add(one_e, EPS)
    for rel_prec in (1, 5):
        got = _linear_power(A2, one_e, -7, SectionPoint.affine(one_2e), rel_prec)
        assert str(got) == "2*e*t^-8+t^-7"
    assert str(_power_by_inverse(A2, one_e, -7, SectionPoint.affine(one_2e), 1)) == "O(t^-9)"


def test_checks_expand_charts_without_series_powers(monkeypatch):
    """The reciprocity checks expand every chart by the binomial series:
    no series inverse or power runs inside _linear_power."""
    ring = TruncatedPolynomialRing(F5, "e", 2)
    eps = ring.generator()
    inside, calls, slips = [0], [0], []

    def watched(name, method):
        def wrapper(*args, **kwargs):
            if inside[0]:
                slips.append(name)
            return method(*args, **kwargs)

        return wrapper

    def linear_power(*args):
        calls[0] += 1
        inside[0] += 1
        try:
            return _linear_power(*args)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(LaurentSeries, "inverse", watched("inverse", LaurentSeries.inverse))
    monkeypatch.setattr(LaurentSeries, "__pow__", watched("__pow__", LaurentSeries.__pow__))
    monkeypatch.setattr(projline, "_linear_power", linear_power)
    two, three = ring.from_int(2), ring.add(ring.from_int(3), eps)
    f = SplitRationalFunction(ring, two, [(eps, -3), (ring.one, 2), (three, 1)])
    g = SplitRationalFunction(ring, ring.one, [(ring.one, -3), (ring.add(two, eps), 1)])
    assert anderson_romo_check(f, g).passed
    omega = GlobalTwoForm(
        ring,
        poles={
            eps: {1: AOneForm(ring, ring.one), 3: AOneForm(ring, eps)},
            three: {2: AOneForm(ring, two), 3: AOneForm(ring, ring.one)},
        },
        tail=(AOneForm(ring, eps), AOneForm(ring, ring.one)),
    )
    assert residue_sum_check(omega).passed
    assert calls[0] > 0 and slips == []


@pytest.mark.parametrize("order", [0, -2])
def test_global_two_form_checks_orders_of_zero_terms(order):
    zero = AOneForm(A2, A2.zero)
    with pytest.raises(CCSymError, match="pole orders must be >= 1"):
        GlobalTwoForm(A2, poles={A2.one: {order: zero, 1: AOneForm(A2, A2.one)}})
    with pytest.raises(CCSymError, match="pole orders must be >= 1"):
        GlobalTwoForm(A2, poles={A2.one: {order: zero}})


@pytest.mark.parametrize("spec, nilpotent", [("F3[e]/(e^2)", "e"), ("Q[e]/(e^3)", "e"), ("Z/9", "3")])
def test_binomial_series_work_does_not_follow_the_exponent(spec, nilpotent):
    # (x - s)^n for n = 10^6: a unit base gives the one term asked for at
    # rel_prec 1, a nilpotent one its n_c terms, exactly
    ring = parse_ring(spec)
    a, n = parse_element(ring, nilpotent), 10**6
    n_c = len(ring.nilpotent_powers(a))
    for s, pt, ell, terms, prec in (
        (ring.zero, SectionPoint.affine(ring.one), 0, 1, 1),
        (ring.one, INF_PT, -n, 1, 1 - n),
        (ring.zero, SectionPoint.affine(a), n + 1 - n_c, n_c, INF),
        (a, INF_PT, -n, n_c, INF),
    ):
        out = _linear_power(ring, s, n, pt, 1)
        assert (out.ell, len(out.coeffs), out.prec) == (ell, terms, prec)
