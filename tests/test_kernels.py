"""The packed series product, the peeling recurrence and the power-series
inverse against references.

The reference product is the schoolbook convolution written here with the
rings' add and mul only, so it shares no code with the product kernel.  The
reference inverse is back-substitution over the stored support of g.
"""

import itertools
import random
from array import array
from fractions import Fraction

import pytest

from ccsym import series
from ccsym.errors import CCSymError, IndeterminateAtPrecision
from ccsym.parsing import parse_ring, parse_series
from ccsym.series import (
    INF,
    LaurentSeries,
    _divide_binomial,
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


#: (len(a), nnz(a), len(b), nnz(b)): sparse windows with nnz(a)*nnz(b) equal to
#: len(a) + len(b) or one more, then the commonest shapes of the products in
#: the residue-square acceptance criterion (dlog-square, seed 103)
SPARSE_SHAPES = [
    (4, 2, 4, 4), (6, 3, 3, 3), (5, 2, 5, 5), (10, 4, 10, 5),
    (4, 3, 4, 3), (6, 2, 7, 7), (10, 3, 10, 7), (5, 4, 6, 3),
    (24, 10, 3, 2), (24, 8, 2, 2), (16, 4, 3, 2),
]


@pytest.mark.parametrize("spec", ["F2[e]/(e^3)", "Z/27", "Q[e]/(e^2)"])
def test_sparse_windows_make_one_kronecker_product(spec, monkeypatch):
    """Two windows longer than one coefficient multiply by one Kronecker
    product, sparse or not; a one-coefficient factor, on either side, by none."""
    ring = parse_ring(spec)
    rng = random.Random(f"crossover:{spec}")
    packed = []
    monkeypatch.setattr(
        series,
        "_kronecker_product",
        lambda *args: packed.append(args) or _kronecker_product(*args),
    )
    for la, na, lb, nb in SPARSE_SHAPES:
        a, b = _sparse_window(ring, rng, la, na), _sparse_window(ring, rng, lb, nb)
        full = la + lb - 1
        # exact, one factor cut, both cut; every cut keeps both windows whole
        for pa, pb in ((INF, INF), (INF, max(la, lb)), (full - 1, max(la, lb) + 1)):
            f, g = LaurentSeries(ring, 2, a, 2 + pa), LaurentSeries(ring, -3, b, -3 + pb)
            prec = min(2 + g.prec, -3 + f.prec)
            length = min(full, prec + 1)
            assert max(la, lb) <= length and (length < full) == (pb != INF)
            expected = LaurentSeries(ring, -1, schoolbook(ring, a, b, length), prec)
            packed.clear()
            assert f * g == expected, (spec, la, na, lb, nb, pa, pb)
            assert len(packed) == 1, (spec, la, na, lb, nb, pa, pb)
    c = LaurentSeries(ring, 1, [_nonzero(ring, rng)], 30)
    packed.clear()
    for f, g in ((c, LaurentSeries(ring, -3, a)), (LaurentSeries(ring, -3, b, 5), c)):
        prec = min(f.ell + g.prec, g.ell + f.prec)
        expected = LaurentSeries(ring, -2, schoolbook(ring, f.coeffs, g.coeffs, 40), prec)
        assert f * g == expected and g * f == expected
    assert not packed


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
            assert g * inv == LaurentSeries.one(ring).truncate(n)


@pytest.mark.parametrize("spec", ["F5", "Z/125", "F3[e]/(e^3)", "Q", "Q[e]/(e^2)"])
def test_inverse_of_dense_series_short_of_the_window(spec):
    ring = parse_ring(spec)
    rng = random.Random(f"dense:{spec}")
    for known in (1, 4, 17):
        coeffs = [ring.random_unit(rng)] + [ring.random_element(rng) for _ in range(known + 3)]
        g = LaurentSeries(ring, 0, coeffs, known)
        inv = _unit_power_series_inverse(g, known + 10)
        assert inv.prec == known
        assert g * inv == LaurentSeries.one(ring).truncate(known)
    with pytest.raises(IndeterminateAtPrecision):
        _unit_power_series_inverse(LaurentSeries(ring, 0, [ring.one], 0), 5)


def _inverse_by_support(g, n):
    """Back-substitution over the stored support S of g above t^0: with
    r_j = -g_j/u, out_k = sum_{j in S, j <= k} r_j * out_{k-j}."""
    ring = g.ring
    n = min(n, g.prec)
    if n <= 0:
        raise IndeterminateAtPrecision("no known coefficients to invert")
    g0inv = ring.inv(g.coeff(0))
    support = [j for j in range(1, min(g.end(), n)) if not ring.is_zero(g.coeff(j))]
    ratios = [ring.neg(ring.mul(g0inv, g.coeff(j))) for j in support]
    out = [g0inv]
    used = 0
    for k in range(1, n):
        if used < len(support) and support[used] == k:
            used += 1
        out.append(ring.dot(ratios[:used], [out[k - j] for j in support[:used]]))
    return LaurentSeries(ring, 0, out, n)


def _outcome(fn, g, n):
    try:
        inv = fn(g, n)
    except CCSymError as exc:
        return type(exc), str(exc)
    return inv.ell, inv.prec, inv.coeffs


def _inverse_inputs(ring, rng):
    """Power series g: binomials, zero runs, dense windows, windows cut short,
    exact constants, and a few with a nilpotent constant or no known slot."""
    zero = ring.zero
    for k in (1, 2, 5, 23):
        yield LaurentSeries.from_terms(ring, {0: ring.random_unit(rng), k: _nonzero(ring, rng)})
    for length in (3, 12, 40):
        runs = [ring.random_unit(rng)]
        while len(runs) < length:
            runs += [zero] * rng.randint(1, 6) + [_nonzero(ring, rng)]
        yield LaurentSeries(ring, 0, runs)
        dense = [ring.random_unit(rng)] + [ring.random_element(rng) for _ in range(length)]
        yield LaurentSeries(ring, 0, dense)
        for known in (1, 3, 17):
            yield LaurentSeries(ring, 0, dense, known)
            yield LaurentSeries(ring, 0, runs, known)
    yield LaurentSeries.constant(ring, ring.random_unit(rng))
    yield LaurentSeries.one(ring)
    yield LaurentSeries(ring, 0, [ring.random_nilpotent(rng), ring.one], 9)
    yield LaurentSeries(ring, 0, [ring.one], 0)


@pytest.mark.parametrize(
    "spec",
    ["F5", "F7", "Q", "F3[e]/(e^2)", "F2[e]/(e^4)", "F5[e]/(e^3)", "Q[e]/(e^3)", "Z/8", "Z/9", "Z/27"],
)
def test_dense_inverse_matches_the_support_recurrence(spec):
    """The dense back-substitution gives the support-bounded one's ell, prec
    and coefficients, or its error class and message."""
    ring = parse_ring(spec)
    rng = random.Random(f"inverse:{spec}")
    errors = 0
    for g in _inverse_inputs(ring, rng):
        for n in (1, 2, 5, 24, 60):
            expected = _outcome(_inverse_by_support, g, n)
            assert _outcome(_unit_power_series_inverse, g, n) == expected, (spec, str(g), n)
            errors += isinstance(expected[0], type)
    assert errors


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


def _q_e2(*numerators):
    ring = parse_ring("Q[e]/(e^2)")
    return [ring.from_coefficients((n, -n)) for n in numerators]


#: (ring, a, b, array item size or None for the per-slot bytes path): slot
#: bounds top(a) * top(b) * min(len) * width just below 2^63 and at 2^63,
#: the edge of 8-byte slots, and one F2[e]/(e^3) product within 1 byte
ARRAY_EDGES = [
    ("Q[e]/(e^2)", _q_e2(2**31 - 1, 5), _q_e2(-(2**30), 2**30), 8),
    ("Q[e]/(e^2)", _q_e2(2**31, 5), _q_e2(-(2**30), 2**30), None),
    ("F2[e]/(e^3)", [(1, 1, 0), (0, 1, 1), (1, 0, 1)], [(1, 1, 1), (1, 0, 0)], 1),
]


@pytest.mark.parametrize("spec,a,b,itemsize", ARRAY_EDGES, ids=["8-bytes", "9-bytes", "1-byte"])
def test_kronecker_slots_on_both_sides_of_the_array_path(spec, a, b, itemsize, monkeypatch):
    ring = parse_ring(spec)
    codes = []
    monkeypatch.setattr(series, "array", lambda code, *args: codes.append(code) or array(code, *args))
    for length in (len(a) + len(b) - 1, 2):
        codes.clear()
        assert _kronecker_product(ring, a, b, length) == schoolbook(ring, a, b, length)
        assert {array(code).itemsize for code in codes} == ({itemsize} if itemsize else set())


def _reference_split(f):
    """(w, G, h) of f = t^w * h / G by series products: G is multiplied by
    (1 - a*t^d)^-1 = sum a^k t^(dk) for each peeled factor."""
    ring = f.ring
    w = f.winding_number()
    h0 = f.shift(-w)
    c_inv = ring.inv(h0.coeff(0))
    geom = LaurentSeries.one(ring)
    tail = h0.truncate(0)
    while tail.coeffs:
        d = tail.ell
        a = ring.neg(ring.mul(c_inv, tail.coeff(d)))
        powers = ring.nilpotent_powers(a)
        geom = geom * LaurentSeries.from_terms(ring, {d * k: p for k, p in enumerate(powers)})
        tail = h0.truncate(-geom.ell) * geom
    if tail.prec < 0:
        raise IndeterminateAtPrecision("negative tail not determined")
    return w, geom, h0 * geom


#: (ring, deepest pole, least valuation of the pole coefficients); F2[e]/(e^33)
#: is above STRAIGHT_LINE_ORDER, so its split runs the class's loops, and its
#: poles lie in m^11: at valuation 1 the peeling takes a number of steps
#: exponential in the nilpotency index
SPLIT_CASES = [
    ("F2[e]/(e^4)", 6, 1),
    ("F7[e]/(e^4)", 6, 1),
    ("Q[e]/(e^2)", 6, 1),
    ("Q[e]/(e^3)", 6, 1),
    ("Z/27", 6, 1),
    ("F2[e]/(e^33)", 2, 11),
]


@pytest.mark.parametrize("spec,max_depth,valuation", SPLIT_CASES, ids=[c[0] for c in SPLIT_CASES])
def test_split_invariants(spec, max_depth, valuation):
    """f = t^w * h / G with h in A[[t]], G * B = 1 for B = prod (1 - a_{-i} t^-i)
    rebuilt from the coordinates, h * B = t^-w * f wherever both are known,
    h known below (f.prec - w) + ell(G), and the split of a series
    reference raises where the split does."""
    ring = parse_ring(spec)
    rng = random.Random(f"split:{spec}")
    scale = ring.one if valuation == 1 else ring.pow(ring.generator(), valuation - 1)
    raised = 0
    for _ in range(150):
        depth, w = rng.randint(0, max_depth), rng.randint(-3, 3)
        coeffs = [ring.mul(scale, ring.random_nilpotent(rng)) for _ in range(depth)]
        coeffs += [ring.random_unit(rng)] + [ring.random_element(rng) for _ in range(rng.randint(0, 6))]
        prec = INF if rng.random() < 0.4 else w + rng.randint(1, len(coeffs) + 3)
        f = LaurentSeries(ring, w - depth, coeffs, prec)
        try:
            expected = _reference_split(f)
        except IndeterminateAtPrecision:
            raised += 1
            with pytest.raises(IndeterminateAtPrecision):
                _split_unit(f)
            continue
        split = _split_unit(f)
        assert (split.w, split.geom, split.h) == expected
        assert split.h.ell >= 0
        B = LaurentSeries.one(ring)
        for i, a in split.neg.items():
            B = B * LaurentSeries.from_terms(ring, {0: ring.one, -i: ring.neg(a)})
        assert split.geom * B == LaurentSeries.one(ring)
        assert (split.h * B).agrees_with(f.shift(-split.w))
        assert split.h.prec == (f.prec - split.w) + split.geom.ell
    assert 0 < raised < 150


@pytest.mark.parametrize("spec", ["F3[e]/(e^3)", "Z/27", "Q[e]/(e^2)"])
def test_divide_binomial(spec):
    """v / (1 - a*t^d) times (1 - a*t^d) gives v back, for windows that
    start at a nonzero slot and hold runs of zeros, |d| = 1 and |d| > 1."""
    ring = parse_ring(spec)
    rng = random.Random(f"divide:{spec}")
    zero = ring.zero
    for d in (-1, -2, -5):
        for v in (
            [ring.random_unit(rng)],
            [_nonzero(ring, rng), zero, zero, zero, ring.random_unit(rng), zero, _nonzero(ring, rng)],
            [ring.one] + [_nonzero(ring, rng) if rng.random() < 0.4 else zero for _ in range(12)],
        ):
            a = ring.random_nilpotent(rng)
            q = list(v)
            (shift,) = _divide_binomial(ring, d, a, q)
            assert shift <= (len(ring.nilpotent_powers(a)) - 1) * -d and q[0] != zero
            binomial = LaurentSeries.from_terms(ring, {0: ring.one, d: ring.neg(a)})
            assert LaurentSeries(ring, -shift, q) * binomial == LaurentSeries(ring, 0, v)
