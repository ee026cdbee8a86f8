import random
import re
from fractions import Fraction

import pytest

from ccsym.errors import ParseError
from ccsym.forms import AOneForm, OneForm, TwoForm, res2
from ccsym.parsing import (
    parse_element,
    parse_form,
    parse_global_two_form,
    parse_mhat,
    parse_rational_function,
    parse_ring,
    parse_series,
)
from ccsym.projline import GlobalTwoForm, SplitRationalFunction
from ccsym.randgen import draw_sections, draw_split_pair, draw_unit
from ccsym.rings import TruncatedPolynomialRing
from ccsym.series import INF, LaurentSeries
from ccsym.symbols import MHatElement


@pytest.mark.parametrize(
    "spec,shown",
    [
        ("F5", "F5"),
        ("Q", "Q"),
        ("F3[e]/(e^2)", "F3[e]/(e^2)"),
        ("Q[e]/(e^3)", "Q[e]/(e^3)"),
        ("Z/25", "Z/25"),
        ("Z/5^2", "Z/25"),
        ("Z/5", "F5"),
        ("Z/5^1", "F5"),
        ("Z/49", "Z/49"),
        ("F7[x]/(x^4)", "F7[x]/(x^4)"),
        (" F3 [e] / (e^2) ", "F3[e]/(e^2)"),
    ],
)
def test_parse_ring(spec, shown):
    assert str(parse_ring(spec)) == shown


@pytest.mark.parametrize(
    "bad",
    ["F4", "Z/1", "Z/6", "Z/12", "F3[e]/(f^2)", "R", "Q[e]", "F1", "Z/5^0", "F3[e]/(e^0)"],
)
def test_parse_ring_rejects(bad):
    with pytest.raises(ParseError):
        parse_ring(bad)


def test_zmod_p_and_prime_field_are_one_ring():
    zp, fp = parse_ring("Z/5"), parse_ring("F5")
    assert zp == fp and hash(zp) == hash(fp)
    # series over either spelling mix freely
    prod = parse_series(zp, "1 + t") * parse_series(fp, "2 - t")
    assert prod == parse_series(fp, "2 + t - t^2")


def test_parse_element():
    A = parse_ring("F3[e]/(e^2)")
    assert parse_element(A, "1+e") == A.add(A.one, A.generator())
    assert parse_element(A, "2*e") == A.mul(A.from_int(2), A.generator())
    Q = parse_ring("Q")
    assert parse_element(Q, "3/2") == Fraction(3, 2)
    assert parse_element(Q, "-1/2 + 2") == Fraction(3, 2)
    QE = parse_ring("Q[e]/(e^3)")
    assert parse_element(QE, "1/2 - 3*e^2") == QE.from_coefficients(
        (Fraction(1, 2), Fraction(0), Fraction(-3))
    )
    with pytest.raises(ParseError):
        parse_element(A, "1 + t")
    with pytest.raises(ParseError):
        parse_element(A, "1 +")


def test_parse_series():
    A = parse_ring("F3[e]/(e^2)")
    s = parse_series(A, "1 - e*t^-1 + 2*t^3 + O(t^8)")
    assert s.prec == 8
    assert s.coeff(-1) == A.neg(A.generator())
    assert s.coeff(3) == A.from_int(2)
    assert parse_series(A, "(1+e)*t^2").ell == 2
    F5 = parse_ring("F5")
    geom = parse_series(F5, "1/(1-t)")
    assert geom.coeff(5) == 1 and geom.prec < INF
    z = parse_mhat(parse_ring("F5[x]/(x^3)"), "z + x*z^-1").unit
    assert z.coeff(1) == (1, 0, 0)


def test_unary_minus_binds_looser_than_power():
    F5 = parse_ring("F5")
    t = parse_series(F5, "t")
    assert parse_series(F5, "-t^2") == -(t**2) == parse_series(F5, "4*t^2")
    assert parse_series(F5, "+t^2") == t**2
    assert parse_series(F5, "(-t)^2") == t**2
    assert parse_series(F5, "2*-t") == parse_series(F5, "3*t")
    assert parse_series(F5, "-t^-1") == parse_series(F5, "4*t^-1")
    Q = parse_ring("Q")
    assert parse_element(Q, "-2^2") == -4
    assert parse_element(Q, "--2^2") == 4
    assert parse_element(Q, "2^-1") == Fraction(1, 2)
    assert parse_element(Q, "3*-2^3") == -24
    QE = parse_ring("Q[e]/(e^3)")
    assert parse_element(QE, "-e^2") == QE.neg(QE.pow(QE.generator(), 2))


def test_series_format_parse_roundtrip():
    A = parse_ring("F3[e]/(e^2)")
    for text in ["1-e*t^-1", "t^-2+(1+e)*t", "2*t^3+O(t^5)", "O(t^4)", "0"]:
        u = parse_series(A, text)
        assert parse_series(A, u.format()) == u


def test_parse_rational_function():
    A = parse_ring("F3[e]/(e^2)")
    f = parse_rational_function(A, "(x - e)")
    assert f.factors == {A.generator(): 1}
    f = parse_rational_function(A, "2 * (x - 1)^2 * (x - e)^-1 * x")
    assert f.constant == A.from_int(2)
    assert f.factors[A.one] == 2 and f.factors[A.generator()] == -1 and f.factors[A.zero] == 1
    F5 = parse_ring("F5")
    assert parse_rational_function(F5, "-1 * (x - 1)").constant == 4
    assert parse_rational_function(F5, "3").factors == {}
    assert parse_rational_function(F5, "(x + 1)").factors == {4: 1}


def test_parse_mhat():
    AX = parse_ring("F5[x]/(x^3)")
    mh = parse_mhat(AX, "x^2 * (z + x*z^-1)")
    assert mh.exponent == 2 and mh.unit.coeff(-1) == AX.generator()
    assert parse_mhat(AX, "(1 - 2*z)").exponent == 0
    assert parse_mhat(AX, "x * (z^3)").deg() == 3
    assert parse_mhat(AX, "x^-1 * (z)").exponent == -1


def test_parse_form():
    A = parse_ring("F3[e]/(e^2)")
    fm = parse_form(A, "t^-1*dt + (1+e)*de")
    assert isinstance(fm, OneForm)
    assert fm.dt.coeff(-1) == A.one
    fm2 = parse_form(A, "(2*t^-1)*de^dt")
    assert isinstance(fm2, TwoForm)
    assert res2(fm2).coeff == A.from_int(2)
    assert isinstance(parse_form(A, "dt"), OneForm)
    with pytest.raises(ParseError):
        parse_form(A, "t^-1*dt + t*de^dt")
    with pytest.raises(ParseError):
        parse_form(A, "t^-1")
    # a lone 0 is the zero one-form, as AOneForm prints it; other constants are no form
    zero = LaurentSeries.zero(A)
    assert parse_form(A, "0") == parse_form(A, " 0 ") == OneForm(zero, zero)
    assert parse_form(A, AOneForm.zero(A).format()).de == zero
    for text in ("1", "0 + 0", "-0"):
        with pytest.raises(ParseError):
            parse_form(A, text)


def test_parse_global_two_form():
    A = parse_ring("F2[e]/(e^2)")  # char | m: no annihilator reduction
    e = A.generator()
    gf = parse_global_two_form(A, "(1+e)*de/(x - 1) + e*de/(x - 0)^2 + e*de*x^3 + de")
    assert gf.poles[A.one][1].coeff == A.add(A.one, e)
    assert gf.poles[A.zero][2].coeff == e
    assert gf.tail[3].coeff == e and gf.tail[0].coeff == A.one
    with pytest.raises(ParseError):
        parse_global_two_form(A, "(1+e)/(x-1)")


def test_mhat_format_roundtrip():
    AX = parse_ring("F5[x]/(x^3)")
    for text in ["x^2 * (z + x*z^-1)", "(1 - 2*z)", "x * (z^3+O(z^9))"]:
        mh = parse_mhat(AX, text)
        again = parse_mhat(AX, mh.format())
        assert again.exponent == mh.exponent and again.unit == mh.unit


@pytest.mark.parametrize(
    "text,pos",
    [
        ("(x - 1) *", 8),
        ("* (x - 1)", 0),
        ("2 * * (x - 1)", 4),
        ("(x - 1)  *  ", 9),
        ("", 0),
        ("(x - 1) * (x 2)", 10),
    ],
)
def test_rational_function_error_positions(text, pos):
    with pytest.raises(ParseError) as info:
        parse_rational_function(parse_ring("F5"), text)
    assert info.value.pos == pos
    assert f"at position {pos} in" in str(info.value)


@pytest.mark.parametrize(
    "parse,text,pos",
    [
        (parse_form, "t*dt + 3", 7),
        (parse_form, "dt - 2*t", 3),
        (parse_global_two_form, "de/(x - 1) + 2*dx", 13),
        (parse_global_two_form, "de/(x - 1) - de*y", 11),
    ],
)
def test_term_error_positions(parse, text, pos):
    with pytest.raises(ParseError) as info:
        parse(parse_ring("F3[e]/(e^2)"), text)
    assert info.value.pos == pos


def _plain(parsed):
    """What a parse gave, as plain data."""
    if isinstance(parsed, SplitRationalFunction):
        return parsed.constant, parsed.factors
    if isinstance(parsed, GlobalTwoForm):
        poles = {s: {k: w.coeff for k, w in ks.items()} for s, ks in parsed.poles.items()}
        return poles, [w.coeff for w in parsed.tail]
    if isinstance(parsed, OneForm):
        return parsed.dt, parsed.de
    return parsed.exponent, parsed.unit


def _unit(A, coeffs):
    return LaurentSeries.from_terms(A, {i: A.from_int(c) for i, c in enumerate(coeffs)})


@pytest.mark.parametrize(
    "parse,spec,text,want",
    [
        # the sign covers 1 alone: x - (1 - e)
        (parse_rational_function, "F3[e]/(e^2)", "(x - 1 + e)",
         lambda A, e: (A.one, {A.sub(A.one, e): 1})),
        # a sum around a linear factor is refused at its sign
        (parse_rational_function, "F3[e]/(e^2)", "2 + e * (x - 1)", (ParseError, 2)),
        (parse_rational_function, "F3[e]/(e^2)", "1+2*e * (x - 2+2*e)^-3", (ParseError, 1)),
        # positions are in the whole text, not in a piece of it
        (parse_rational_function, "F3[e]/(e^2)", "(x - 1) * (x - 1+q)", (ParseError, 17)),
        (parse_global_two_form, "F3[e]/(e^2)", "de/(x + 1)",
         lambda A, e: ({A.neg(A.one): {1: A.one}}, [])),
        (parse_global_two_form, "F3[e]/(e^2)", "de/x", lambda A, e: ({A.zero: {1: A.one}}, [])),
        (parse_form, "F3[e]/(e^2)", "t*dt + -t*dt", lambda A, e: (LaurentSeries.zero(A),) * 2),
        (parse_mhat, "F5[x]/(x^3)", "(1+z)*(2+z)", lambda A, x: (0, _unit(A, [2, 3, 1]))),
        (parse_mhat, "F5[x]/(x^3)", "x^2 * (1+z)*(2+z)", lambda A, x: (2, _unit(A, [2, 3, 1]))),
    ],
)
def test_one_grammar_reads_each_text_whole(parse, spec, text, want):
    ring = parse_ring(spec)
    if isinstance(want, tuple):
        with pytest.raises(want[0]) as info:
            parse(ring, text)
        assert info.value.pos == want[1]
    else:
        assert _plain(parse(ring, text)) == want(ring, ring.generator())


# the default rings of the reciprocity-ar and weil suites, and Q[e]/(e^3)
ROUND_TRIP_RINGS = [
    "F3[e]/(e^2)", "F5[e]/(e^2)", "F3[e]/(e^3)", "F7[e]/(e^2)", "F2[e]/(e^2)",
    "Z/4", "Z/9", "Z/25", "Q[e]/(e^2)", "F3", "F5", "F7", "Q", "Q[e]/(e^3)",
]


@pytest.mark.parametrize("spec", ROUND_TRIP_RINGS)
def test_rational_function_format_reads_back(spec):
    ring = parse_ring(spec)
    rng = random.Random(7)
    for _ in range(150):
        for f in draw_split_pair(ring, rng):
            back = parse_rational_function(ring, f.format())
            assert (back.constant, back.factors) == (f.constant, f.factors), f.format()


PRINTED_ONE = re.compile(r"(?<![\^\d/])(?<!\^-)1\*[a-z]")


def _random_series(ring, rng):
    ell = rng.randint(-4, 2)
    coeffs = [ring.random_element(rng) for _ in range(rng.randint(0, 6))]
    return LaurentSeries(ring, ell, coeffs, rng.choice([INF, ell + len(coeffs) + rng.randint(0, 3)]))


def _level(ring):
    """k[x]/(x^m) of the ring's residue field, m its nilpotency index (3 for a field)."""
    m = 3 if ring.is_field else ring.nilpotency_index
    return TruncatedPolynomialRing(ring.residue_field, "x", m)


def _trimmed(tail):
    tail = list(tail)
    while tail and tail[-1].is_zero():
        tail.pop()
    return tail


@pytest.mark.parametrize("spec", ["F5", "Z/25", "Q", "F3[e]/(e^3)", "Q[e]/(e^2)", "Q[e]/(e^3)"])
def test_printed_values_read_back(spec):
    """Every printer goes through one term rule: no coefficient 1 before a
    letter (a -1 prints as a sign), and every printed value parses back."""
    ring = parse_ring(spec)
    rng = random.Random(11)
    printed = []

    def check(text, parse, same):
        printed.append(text)
        assert PRINTED_ONE.search(text) is None, text
        assert same(parse(text)), text

    for _ in range(40):
        x = ring.random_element(rng)
        check(ring.format_element(x), lambda t: parse_element(ring, t), lambda y: y == x)
        s = _random_series(ring, rng)
        check(s.format(), lambda t: parse_series(ring, t), lambda y: y == s)
        for f in draw_split_pair(ring, rng):
            check(f.format(), lambda t: parse_rational_function(ring, t),
                  lambda y: (y.constant, y.factors) == (f.constant, f.factors))
        level = _level(ring)
        u = MHatElement(level, rng.randint(-3, 3), draw_unit(level, rng).series(6))
        check(u.format(), lambda t: parse_mhat(level, t),
              lambda y: (y.exponent, y.unit) == (u.exponent, u.unit))
        if not ring.has_section:
            continue
        a = AOneForm(ring, ring.random_element(rng))
        check(a.format(), lambda t: parse_form(ring, t).de,
              lambda y: y == LaurentSeries.constant(ring, a.coeff))
        one = OneForm(_random_series(ring, rng), _random_series(ring, rng))
        check(one.format(), lambda t: parse_form(ring, t), lambda y: y == one)
        two = TwoForm(_random_series(ring, rng))
        check(two.format(), lambda t: parse_form(ring, t), lambda y: y == two)
        poles = {
            v: {k: AOneForm(ring, ring.random_element(rng)) for k in range(1, rng.randint(1, 3) + 1)}
            for v in draw_sections(ring, rng, rng.randint(0, 3))
        }
        tail = [AOneForm(ring, ring.random_element(rng)) for _ in range(rng.randint(0, 3))]
        w = GlobalTwoForm(ring, poles, tail)
        check(w.format(), lambda t: parse_global_two_form(ring, t),
              lambda y: (y.poles, _trimmed(y.tail)) == (w.poles, _trimmed(w.tail)))
    if spec == "Q[e]/(e^3)":  # the -1 coefficient that used to print as -1*e
        assert any("-e" in text for text in printed)
