"""Q[e]/(e^m) on integer numerators against a Fraction reference, and the
parser round trip of elements, series and forms over every ring kind.

The reference computes on tuples of Fraction coefficients with schoolbook
formulas written here, so it shares no code with the integer layout in
rings.py.  Denominators reach 3^27.
"""

import pickle
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from ccsym.forms import OneForm, TwoForm
from ccsym.parsing import parse_element, parse_form, parse_ring, parse_series
from ccsym.rings import RationalField, TruncatedPolynomialRing
from ccsym.series import INF, LaurentSeries, _kronecker_product

Q = RationalField()
QE = {m: TruncatedPolynomialRing(Q, "e", m) for m in range(1, 5)}

denominators = st.one_of(
    st.sampled_from([1, 2, 6, 3**5, 3**26, 3**27]), st.integers(1, 3**27)
)
fractions = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-(10**15), 10**15), denominators),
)


def coefficients(m):
    return st.lists(fractions, min_size=m, max_size=m).map(tuple)


# -- the Fraction reference ---------------------------------------------------


def ref_mul(a, b):
    m = len(a)
    out = [Fraction(0)] * m
    for i in range(m):
        for j in range(m - i):
            out[i + j] += a[i] * b[j]
    return tuple(out)


def ref_inv(a):
    m = len(a)
    out = [1 / a[0]] + [Fraction(0)] * (m - 1)
    for k in range(1, m):
        out[k] = -sum(a[i] * out[k - i] for i in range(1, k + 1)) / a[0]
    return tuple(out)


def ref_pow(a, n):
    out = (Fraction(1),) + (Fraction(0),) * (len(a) - 1)
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_d_epsilon(a):
    return tuple(i * a[i] for i in range(1, len(a))) + (Fraction(0),)


def canonical(ring, x):
    """x is the one tuple of its value: positive denominator, gcd 1."""
    assert len(x) == ring.order + 1
    assert all(type(v) is int for v in x)
    assert x[-1] > 0
    assert gcd(*x) == 1
    return ring.coefficients(x)


ring_and_coefficients = st.sampled_from(sorted(QE)).flatmap(
    lambda m: st.tuples(st.just(QE[m]), coefficients(m), coefficients(m), coefficients(m))
)


@given(ring_and_coefficients, st.integers(0, 5))
@settings(max_examples=300, deadline=None)
def test_arithmetic_matches_fraction_reference(data, n):
    ring, a, b, c = data
    x, y, z = map(ring.from_coefficients, (a, b, c))
    assert [canonical(ring, v) for v in (x, y, z)] == [a, b, c]
    assert canonical(ring, ring.add(x, y)) == tuple(p + q for p, q in zip(a, b))
    assert canonical(ring, ring.sub(x, y)) == tuple(p - q for p, q in zip(a, b))
    assert canonical(ring, ring.neg(x)) == tuple(-p for p in a)
    assert canonical(ring, ring.mul(x, y)) == ref_mul(a, b)
    expected_dot = tuple(p + q for p, q in zip(ref_mul(a, b), ref_mul(b, c)))
    assert canonical(ring, ring.dot([x, y], [y, z])) == expected_dot
    assert canonical(ring, ring.dot([], [])) == (Fraction(0),) * ring.order
    assert canonical(ring, ring.pow(x, n)) == ref_pow(a, n)
    assert canonical(ring, ring.d_epsilon(x)) == ref_d_epsilon(a)
    if a[0]:
        assert canonical(ring, ring.inv(x)) == ref_inv(a)
        assert canonical(ring, ring.pow(x, -n)) == ref_pow(ref_inv(a), n)
    nil = (Fraction(0),) + a[1:]
    powers = ring.nilpotent_powers(ring.from_coefficients(nil))
    assert [canonical(ring, v) for v in powers] == [ref_pow(nil, k) for k in range(len(powers))]
    assert ref_pow(nil, len(powers)) == (Fraction(0),) * ring.order


@given(ring_and_coefficients)
@settings(max_examples=200, deadline=None)
def test_equal_values_are_identical_tuples(data):
    ring, a, b, _ = data
    x, y = ring.from_coefficients(a), ring.from_coefficients(b)
    # the same value reached by two routes: one tuple, one hash
    for left, right in (
        (ring.sub(ring.add(x, y), y), x),
        (ring.mul(ring.add(x, y), ring.one), ring.add(y, x)),
        (ring.add(ring.neg(x), x), ring.zero),
        (ring.dot([x, x], [y, y]), ring.mul(ring.from_int(2), ring.mul(x, y))),
    ):
        assert left == right
        assert hash(left) == hash(right)
    assert ring.is_zero(ring.sub(x, x))
    assert ring.is_unit(x) == bool(a[0]) != ring.is_nilpotent(x)
    assert ring.residue(x) == a[0]
    assert ring.lift(a[0]) == ring.from_coefficients((a[0],) + (0,) * (ring.order - 1))


@given(
    st.sampled_from(sorted(QE)).flatmap(
        lambda m: st.tuples(
            st.just(QE[m]),
            st.lists(coefficients(m), min_size=1, max_size=7),
            st.lists(coefficients(m), min_size=1, max_size=7),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_packed_product_matches_fraction_reference(data):
    ring, va, vb = data
    length = len(va) + len(vb) - 1
    expected = [(Fraction(0),) * ring.order for _ in range(length)]
    for i, a in enumerate(va):
        for j, b in enumerate(vb):
            expected[i + j] = tuple(p + q for p, q in zip(expected[i + j], ref_mul(a, b)))
    got = _kronecker_product(
        ring, [ring.from_coefficients(a) for a in va], [ring.from_coefficients(b) for b in vb], length
    )
    assert [canonical(ring, v) for v in got] == expected


def test_constructor_picks_the_layout():
    for m, ring in QE.items():
        assert ring == TruncatedPolynomialRing(RationalField(), "e", m)
        assert hash(ring) == hash(parse_ring(f"Q[e]/(e^{m})"))
        assert pickle.loads(pickle.dumps(ring)) == ring
        assert ring.zero == (0,) * m + (1,)
    assert parse_ring("F3[e]/(e^2)").zero == (0, 0)


# -- parse(format(x)) == x over the five ring kinds ---------------------------

ROUND_TRIP_RINGS = [
    "F2", "F7",  # prime fields
    "Z/4", "Z/27",  # Z/p^m
    "Q",
    "F3[e]/(e^3)", "F5[x]/(x^2)", "F2[e]/(e^1)",  # F_p[e]/(e^m)
    "Q[e]/(e^1)", "Q[e]/(e^2)", "Q[x]/(x^4)",  # Q[e]/(e^m)
]


def ring_elements(ring):
    if ring.characteristic == 0:
        # small integers print as -1, -t^2, -x^2: signs next to powers
        scalar = st.one_of(st.integers(-2, 2).map(Fraction), fractions)
    else:
        scalar = st.integers(0, ring.characteristic - 1)
    if not isinstance(ring, TruncatedPolynomialRing):
        return scalar
    return st.lists(scalar, min_size=ring.order, max_size=ring.order).map(
        ring.from_coefficients
    )


@given(
    st.sampled_from(ROUND_TRIP_RINGS).flatmap(
        lambda spec: st.tuples(st.just(parse_ring(spec)), ring_elements(parse_ring(spec)))
    )
)
@settings(max_examples=300, deadline=None)
def test_parse_format_round_trip(data):
    ring, x = data
    assert parse_element(ring, ring.format_element(x)) == x


def laurent_series(ring):
    return st.builds(
        LaurentSeries,
        st.just(ring),
        st.integers(-6, 6),
        st.lists(ring_elements(ring), max_size=6),
        st.one_of(st.just(INF), st.integers(-6, 12)),
    )


@given(st.sampled_from(ROUND_TRIP_RINGS).flatmap(lambda spec: laurent_series(parse_ring(spec))))
@settings(max_examples=300, deadline=None)
def test_series_parse_format_round_trip(s):
    assert parse_series(s.ring, s.format()) == s


@given(
    st.sampled_from([s for s in ROUND_TRIP_RINGS if parse_ring(s).has_section]).flatmap(
        lambda spec: st.tuples(laurent_series(parse_ring(spec)), laurent_series(parse_ring(spec)))
    )
)
@settings(max_examples=300, deadline=None)
def test_form_parse_format_round_trip(pair):
    f, g = pair
    for form in (OneForm(f, g), TwoForm(f)):
        assert parse_form(f.ring, form.format()) == form
