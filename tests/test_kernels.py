"""The packed and sparse series products, the peeling recurrence and the
power-series inverse against references.

The reference product is the schoolbook convolution written here with the
rings' add and mul only, so it shares no code with either product kernel.
"""

import itertools
import random
from fractions import Fraction

import pytest

from ccsym import series
from ccsym.errors import IndeterminateAtPrecision
from ccsym.parsing import parse_ring, parse_series
from ccsym.series import (
    INF,
    SPARSE_PRODUCT_RATIO,
    LaurentSeries,
    _kronecker_product,
    _peel,
    _split_unit,
    _unit_power_series_inverse,
)
from ccsym.symbols import contou_carrere, witt_decompose


def schoolbook(ring, a, b, length):
    out = [ring.zero] * length
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < length:
                out[i + j] = ring.add(out[i + j], ring.mul(x, y))
    return out


def vectors(ring, max_len):
    elements = list(ring.iter_elements())
    for n in range(1, max_len + 1):
        yield from itertools.product(elements, repeat=n)


@pytest.mark.parametrize("spec,max_len", [("F2[e]/(e^2)", 3), ("Z/4", 3), ("F3[e]/(e^2)", 2)])
def test_every_short_product(spec, max_len):
    ring = parse_ring(spec)
    vs = list(vectors(ring, max_len))
    for a in vs:
        for b in vs:
            full = len(a) + len(b) - 1
            for length in {full, max(1, full - 2)}:
                assert _kronecker_product(ring, a, b, length) == schoolbook(ring, a, b, length)


SEEDED_RINGS = [
    "F2",
    "F7",
    "F65521",
    "Z/243",
    "Z/1024",
    "F2[e]/(e^2)",
    "F7[e]/(e^4)",
    "F65521[e]/(e^3)",
    "Q",
    "Q[e]/(e^3)",
]


def _top(ring):
    """The element with every component at its largest representative."""
    if ring.characteristic == 0:
        big = Fraction(-(10**15) + 1, 10**12 - 11)
    else:
        big = ring.characteristic - 1
    return big if ring.width == 1 else ring.from_coefficients((big,) * ring.width)


#: denominators of the rational test data: large, but with a bounded lcm
DENOMINATORS = (1, 6, 2**31 - 1, 3**27, 10**12 - 11)


def _scalar(ring, rng):
    if ring.characteristic == 0:
        return Fraction(rng.randint(-(10**15), 10**15), rng.choice(DENOMINATORS))
    return rng.randrange(ring.characteristic)


def _element(ring, rng):
    if ring.width == 1:
        return _scalar(ring, rng)
    return ring.from_coefficients([_scalar(ring.base, rng) for _ in range(ring.width)])


def _vector(ring, rng, n, kind):
    if kind == "top":
        return [_top(ring)] * n
    out = [_element(ring, rng) for _ in range(n)]
    if kind == "padded" and n > 2:
        pad = rng.randint(1, n // 2)
        out[:pad] = [ring.zero] * pad
        out[-pad:] = [ring.zero] * pad
    return out


SHAPES = [(1, 1), (1, 200), (200, 1), (2, 3), (5, 200), (37, 64), (200, 200)]


@pytest.mark.parametrize("spec", SEEDED_RINGS)
def test_seeded_products(spec):
    ring = parse_ring(spec)
    rng = random.Random(f"kernels:{spec}")
    for (na, nb), kind in itertools.product(SHAPES, ("random", "top", "padded")):
        if (na, nb) == (200, 200) and kind != "top":
            continue  # one worst case at full length keeps the reference quick
        a, b = _vector(ring, rng, na, kind), _vector(ring, rng, nb, kind)
        full = na + nb - 1
        for length in (full, rng.randint(1, full)):
            got = _kronecker_product(ring, a[:length], b[:length], length)
            assert got == schoolbook(ring, a, b, length), (spec, na, nb, kind, length)


@pytest.mark.parametrize("spec", SEEDED_RINGS)
def test_series_product_precision(spec):
    """Products of known windows stop at the propagated precision."""
    ring = parse_ring(spec)
    rng = random.Random(f"series:{spec}")
    for _ in range(12):
        na, nb = rng.randint(1, 40), rng.randint(1, 40)
        la, lb = rng.randint(-5, 5), rng.randint(-5, 5)
        a, b = _vector(ring, rng, na, "padded"), _vector(ring, rng, nb, "random")
        pa = la + na + rng.randint(-na, 3)
        pb = INF if rng.random() < 0.3 else lb + nb + rng.randint(-nb, 3)
        f, g = LaurentSeries(ring, la, a, pa), LaurentSeries(ring, lb, b, pb)
        low_f = f.ell if f.coeffs else f.prec
        low_g = g.ell if g.coeffs else g.prec
        prec = min(low_f + g.prec, low_g + f.prec)
        length = max(0, min(len(f.coeffs) + len(g.coeffs) - 1, prec - f.ell - g.ell))
        expected = LaurentSeries(
            ring, f.ell + g.ell, schoolbook(ring, f.coeffs, g.coeffs, length), prec
        )
        assert f * g == expected
        assert g * f == expected


def _nonzero(ring, rng):
    while True:
        x = ring.random_element(rng)
        if not ring.is_zero(x):
            return x


def _sparse_window(ring, rng, length, nnz):
    """``length`` slots, nonzero at both ends and at nnz - 2 other slots."""
    out = [ring.zero] * length
    for i in [0, length - 1, *rng.sample(range(1, length - 1), nnz - 2)]:
        out[i] = _nonzero(ring, rng)
    return out


#: (len(a), nnz(a), len(b), nnz(b)) with nnz(a)*nnz(b) at the crossover...
AT_CROSSOVER = [(4, 2, 4, 4), (6, 3, 3, 3), (5, 2, 5, 5), (10, 4, 10, 5)]
#: ...and one pair past it
PAST_CROSSOVER = [(4, 3, 4, 3), (6, 2, 7, 7), (10, 3, 10, 7), (5, 4, 6, 3)]


@pytest.mark.parametrize("spec", ["F2[e]/(e^3)", "Z/27", "Q[e]/(e^2)"])
def test_product_on_both_sides_of_the_sparse_crossover(spec, monkeypatch):
    ring = parse_ring(spec)
    rng = random.Random(f"crossover:{spec}")
    packed = []
    monkeypatch.setattr(
        series,
        "_kronecker_product",
        lambda *args: packed.append(args) or _kronecker_product(*args),
    )
    for shapes, slack in ((AT_CROSSOVER, 0), (PAST_CROSSOVER, 1)):
        for la, na, lb, nb in shapes:
            assert na * nb == SPARSE_PRODUCT_RATIO * (la + lb) + slack
            a, b = _sparse_window(ring, rng, la, na), _sparse_window(ring, rng, lb, nb)
            full = la + lb - 1
            # exact, one factor cut, both cut; every cut keeps both windows
            # whole and stops the sparse loop at k >= length
            for pa, pb in ((INF, INF), (INF, max(la, lb)), (full - 1, max(la, lb) + 1)):
                f, g = LaurentSeries(ring, 2, a, 2 + pa), LaurentSeries(ring, -3, b, -3 + pb)
                prec = min(2 + g.prec, -3 + f.prec)
                length = min(full, prec + 1)
                assert max(la, lb) <= length and (length < full) == (pb != INF)
                expected = LaurentSeries(ring, -1, schoolbook(ring, a, b, length), prec)
                packed.clear()
                assert f * g == expected, (spec, la, na, lb, nb, pa, pb)
                assert len(packed) == slack, (spec, la, na, lb, nb, pa, pb)


@pytest.mark.parametrize("spec", ["F5[e]/(e^3)", "Z/25", "Q[e]/(e^2)"])
def test_peel_divides_by_the_leading_coefficient(spec):
    """_peel(v) reads the coordinates of v/v[0], and v[0] * prod (1 - a_i s^i)
    gives v back below s^len(v)."""
    ring = parse_ring(spec)
    rng = random.Random(f"peel:{spec}")
    for n in (1, 2, 5, 12, 20):
        for sparse in (False, True):
            v = [ring.random_unit(rng)] + [
                ring.zero if sparse and rng.random() < 0.6 else ring.random_element(rng)
                for _ in range(n - 1)
            ]
            inv0 = ring.inv(v[0])
            coords = _peel(ring, list(v))
            assert coords == _peel(ring, [ring.mul(inv0, x) for x in v])
            product = [v[0]] + [ring.zero] * (n - 1)
            for i, a in sorted(coords.items()):
                product = schoolbook(ring, product, [ring.one] + [ring.zero] * (i - 1) + [ring.neg(a)], n)
            assert product == v, (spec, n, sparse)


@pytest.mark.parametrize("spec", ["F5", "Z/125", "F3[e]/(e^3)", "Q", "Q[e]/(e^2)"])
def test_inverse_of_sparse_binomials(spec):
    ring = parse_ring(spec)
    rng = random.Random(f"binomial:{spec}")
    for k in (1, 2, 5, 23):
        for n in (1, k, k + 1, 60):
            u = ring.random_unit(rng)
            g = LaurentSeries.from_terms(ring, {0: u, k: ring.random_element(rng)})
            inv = _unit_power_series_inverse(g, n)
            assert inv.prec == n
            assert g * inv == LaurentSeries.one(ring, prec=n)


@pytest.mark.parametrize("spec", ["F5", "Z/125", "F3[e]/(e^3)", "Q", "Q[e]/(e^2)"])
def test_inverse_of_dense_series_short_of_the_window(spec):
    ring = parse_ring(spec)
    rng = random.Random(f"dense:{spec}")
    for known in (1, 4, 17):
        coeffs = [ring.random_unit(rng)] + [ring.random_element(rng) for _ in range(known + 3)]
        g = LaurentSeries(ring, 0, coeffs, known)
        inv = _unit_power_series_inverse(g, known + 10)
        assert inv.prec == known
        assert g * inv == LaurentSeries.one(ring, prec=known)
    with pytest.raises(IndeterminateAtPrecision):
        _unit_power_series_inverse(LaurentSeries(ring, 0, [ring.one], 0), 5)


def test_split_is_kept_on_the_series():
    ring = parse_ring("F3[e]/(e^2)")
    f = parse_series(ring, "e*t^-2 + 2 + t - t^3")
    g = parse_series(ring, "1 + e*t^-1 + t^2")
    split = _split_unit(f)
    assert _split_unit(f) is split
    f.inverse()
    witt_decompose(f)
    contou_carrere(f, g)
    assert _split_unit(f) is split
    assert f == parse_series(ring, "e*t^-2 + 2 + t - t^3")
    assert hash(f) == hash(parse_series(ring, "e*t^-2 + 2 + t - t^3"))


def test_failed_split_raises_again():
    ring = parse_ring("F3[e]/(e^2)")
    f = parse_series(ring, "e*t^-3 + 1 + O(t^2)")
    for _ in range(2):
        with pytest.raises(IndeterminateAtPrecision):
            _split_unit(f)
