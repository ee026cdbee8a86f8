"""Property-based checks of the core algebraic invariants."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ccsym.rings import (
    IntegersModPrimePower,
    PrimeField,
    RationalField,
    TruncatedPolynomialRing,
)
from ccsym.series import INF, LaurentSeries

F5 = PrimeField(5)
A2 = TruncatedPolynomialRing(PrimeField(3), "e", 2)
QE2 = TruncatedPolynomialRing(RationalField(), "e", 2)
Z9 = IntegersModPrimePower(3, 2)

RINGS = {"F5": F5, "A2": A2, "QE2": QE2, "Z9": Z9}


def elements(ring):
    if isinstance(ring, PrimeField):
        return st.integers(0, ring.p - 1)
    if isinstance(ring, IntegersModPrimePower):
        return st.integers(0, ring.pm - 1)
    if isinstance(ring, RationalField):
        return st.fractions(min_value=-20, max_value=20, max_denominator=8)
    base = elements(ring.base)
    return st.tuples(*[base] * ring.order).map(ring.from_coefficients)


ring_and_elements = st.sampled_from(sorted(RINGS)).flatmap(
    lambda key: st.tuples(
        st.just(RINGS[key]),
        elements(RINGS[key]),
        elements(RINGS[key]),
        elements(RINGS[key]),
    )
)


@given(ring_and_elements)
@settings(max_examples=200)
def test_ring_axioms(data):
    ring, x, y, z = data
    assert ring.add(x, y) == ring.add(y, x)
    assert ring.mul(x, y) == ring.mul(y, x)
    assert ring.add(ring.add(x, y), z) == ring.add(x, ring.add(y, z))
    assert ring.mul(ring.mul(x, y), z) == ring.mul(x, ring.mul(y, z))
    assert ring.mul(x, ring.add(y, z)) == ring.add(ring.mul(x, y), ring.mul(x, z))
    assert ring.add(x, ring.neg(x)) == ring.zero
    assert ring.mul(x, ring.one) == x


@given(ring_and_elements)
@settings(max_examples=200)
def test_unit_nilpotent_split(data):
    ring, x, _, _ = data
    if ring.is_zero(x):
        assert ring.is_nilpotent(x)
    else:
        assert ring.is_unit(x) != ring.is_nilpotent(x)
    if ring.is_unit(x):
        assert ring.mul(x, ring.inv(x)) == ring.one
    else:
        assert ring.is_zero(ring.pow(x, ring.nilpotency_index))


def series_over(ring):
    return st.builds(
        lambda terms, prec: LaurentSeries.from_terms(
            ring, dict(enumerate(terms, start=-2)), prec=INF if prec is None else prec
        ),
        st.lists(elements(ring), min_size=0, max_size=6),
        st.one_of(st.none(), st.integers(3, 8)),
    )


@given(series_over(A2), series_over(A2), series_over(A2))
@settings(max_examples=150)
def test_series_ring_axioms(f, g, h):
    assert (f + g).agrees_with(g + f)
    assert (f * g).agrees_with(g * f)
    assert ((f + g) + h).agrees_with(f + (g + h))
    assert ((f * g) * h).agrees_with(f * (g * h))
    assert (f * (g + h)).agrees_with(f * g + f * h)


@given(series_over(F5), series_over(F5))
@settings(max_examples=150)
def test_series_mul_precision_rule(f, g):
    prod = f * g
    la = f.ell if f.coeffs else f.prec
    lb = g.ell if g.coeffs else g.prec
    assert prod.prec == min(la + g.prec, lb + f.prec)


@given(series_over(A2))
@settings(max_examples=150)
def test_inverse_is_two_sided(f):
    from ccsym.errors import IndeterminateAtPrecision, NonUnit

    try:
        inv = f.inverse()
    except (NonUnit, IndeterminateAtPrecision):
        return
    assert (f * inv).agrees_with(LaurentSeries.one(A2))
    assert (inv * f).agrees_with(LaurentSeries.one(A2))


@given(series_over(A2))
@settings(max_examples=100)
def test_decompose_recompose(f):
    from ccsym.errors import IndeterminateAtPrecision, NonUnit
    from ccsym.symbols import recompose, witt_decompose

    try:
        d = witt_decompose(f)
    except (NonUnit, IndeterminateAtPrecision):
        return
    assert recompose(d).agrees_with(f)
