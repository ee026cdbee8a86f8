import pickle
import random

import pytest
from fractions import Fraction

from ccsym.errors import (
    CCSymError,
    InvariantViolation,
    MixedRings,
    NonUnit,
    NotAHomomorphism,
    ParseError,
    UnsupportedRing,
)
from ccsym.parsing import parse_element, parse_ring
from ccsym.rings import (
    STRAIGHT_LINE_ORDER,
    IntegersModPrimePower,
    PrimeField,
    RationalField,
    Ring,
    TruncatedPolynomialRing,
    epsilon_map,
    residue_map,
    truncation_map,
)

F3 = PrimeField(3)
F5 = PrimeField(5)
Q = RationalField()
A2 = TruncatedPolynomialRing(F3, "e", 2)
A3 = TruncatedPolynomialRing(F3, "e", 3)
QE2 = TruncatedPolynomialRing(Q, "e", 2)
QE3 = TruncatedPolynomialRing(Q, "e", 3)
Z25 = IntegersModPrimePower(5, 2)
EPS = A2.generator()


def test_basic_arithmetic():
    assert A2.mul(A2.add(A2.one, EPS), A2.sub(A2.one, EPS)) == A2.one
    assert F5.mul(3, 4) == 2
    assert Z25.mul(5, 5) == 0


def test_inverses():
    assert A2.inv(A2.sub(A2.one, EPS)) == A2.add(A2.one, EPS)
    assert F5.inv(3) == 2
    with pytest.raises(NonUnit):
        A2.inv(EPS)
    x = QE3.add(QE3.one, QE3.generator())
    assert QE3.mul(x, QE3.inv(x)) == QE3.one


def test_residue_and_lift():
    assert A2.residue((1, 2)) == 1
    assert QE3.lift(Fraction(2)) == QE3.from_coefficients((Fraction(2), Fraction(0), Fraction(0)))
    assert Z25.residue(7) == 2
    # lift splits residue
    for ring in (A2, A3, QE3, Z25):
        k = ring.residue_field
        rng = random.Random(0)
        for _ in range(20):
            c = k.random_element(rng)
            assert ring.residue(ring.lift(c)) == c


def test_lift_is_homomorphism_when_section_flagged():
    rng = random.Random(1)
    for ring in (A2, A3, QE3):
        k = ring.residue_field
        for _ in range(20):
            a, b = k.random_element(rng), k.random_element(rng)
            assert ring.lift(k.mul(a, b)) == ring.mul(ring.lift(a), ring.lift(b))
            assert ring.lift(k.add(a, b)) == ring.add(ring.lift(a), ring.lift(b))
    assert not Z25.has_section


def test_unit_nilpotent_dichotomy():
    rng = random.Random(2)
    for ring in (F3, Q, A2, A3, QE3, Z25):
        for _ in range(30):
            x = ring.random_element(rng)
            if ring.is_zero(x):
                assert ring.is_nilpotent(x)
            else:
                assert ring.is_unit(x) != ring.is_nilpotent(x)
            if ring.is_nilpotent(x):
                assert ring.is_zero(ring.pow(x, ring.nilpotency_index))


def test_nilpotency_index():
    assert F3.nilpotency_index == 1
    assert Q.nilpotency_index == 1
    assert A3.nilpotency_index == 3
    assert Z25.nilpotency_index == 2


def test_d_epsilon():
    assert A2.d_epsilon((1, 2)) == (2, 0)
    g2 = QE3.generator()
    assert QE3.d_epsilon(QE3.mul(g2, g2)) == QE3.from_coefficients(
        (Fraction(0), Fraction(2), Fraction(0))
    )
    assert QE3.d_epsilon(QE3.from_int(5)) == QE3.zero
    with pytest.raises(UnsupportedRing):
        F5.d_epsilon(1)
    with pytest.raises(UnsupportedRing):
        Z25.d_epsilon(1)


def test_d_epsilon_leibniz():
    # Leibniz holds in Omega^1_A, i.e. modulo the annihilator relation
    from ccsym.forms import reduce_de_coefficient

    rng = random.Random(3)
    for ring in (A2, A3, QE3):
        for _ in range(30):
            x, y = ring.random_element(rng), ring.random_element(rng)
            lhs = ring.d_epsilon(ring.mul(x, y))
            rhs = ring.add(
                ring.mul(x, ring.d_epsilon(y)), ring.mul(y, ring.d_epsilon(x))
            )
            assert reduce_de_coefficient(ring, lhs) == reduce_de_coefficient(ring, rhs)


def test_ring_maps():
    h = epsilon_map(A2, F3, 0)
    assert h((1, 1)) == 1
    F5e = TruncatedPolynomialRing(F5, "e", 2)
    h2 = epsilon_map(F5e, F5e, (0, 2))
    assert h2((1, 1)) == (1, 2)
    h3 = truncation_map(Z25, 1)
    assert h3(7) == 2
    r = residue_map(A3)
    assert r((2, 1, 1)) == 2


def test_ring_map_rejects_non_local():
    with pytest.raises(NotAHomomorphism):
        epsilon_map(A2, A2, A2.one)  # image not nilpotent
    with pytest.raises(NotAHomomorphism):
        # e^2 = 0 in the source but the image has e'^2 != 0 in k[e]/(e^3)
        epsilon_map(A2, A3, A3.generator())
    with pytest.raises(NotAHomomorphism):
        truncation_map(Z25, 3)


def test_ring_maps_commute_with_operations():
    rng = random.Random(4)
    maps = [
        residue_map(A3),
        epsilon_map(A3, A3, A3.mul(A3.from_int(2), A3.generator())),
        epsilon_map(A3, A2, EPS),
        truncation_map(Z25, 1),
        epsilon_map(QE3, QE3, QE3.mul(QE3.from_int(2), QE3.generator())),
        epsilon_map(QE3, QE2, QE2.generator()),
        epsilon_map(QE3, Q, Q.zero),
    ]
    for h in maps:
        ring = h.source
        for _ in range(25):
            x, y = ring.random_element(rng), ring.random_element(rng)
            assert h(ring.add(x, y)) == h.target.add(h(x), h(y))
            assert h(ring.mul(x, y)) == h.target.mul(h(x), h(y))
            assert h(ring.neg(x)) == h.target.neg(h(x))


def test_mixed_rings_rejected():
    from ccsym.series import LaurentSeries

    with pytest.raises(MixedRings):
        LaurentSeries.one(A2) + LaurentSeries.one(A3)


def test_inv_antihomomorphism():
    rng = random.Random(5)
    for ring in (A3, Z25, QE3):
        for _ in range(20):
            x, y = ring.random_unit(rng), ring.random_unit(rng)
            assert ring.inv(ring.mul(x, y)) == ring.mul(ring.inv(y), ring.inv(x))
            assert ring.mul(x, ring.inv(x)) == ring.one


def test_element_formatting_roundtrip():
    rng = random.Random(6)
    for ring in (F5, Q, A2, A3, QE3, Z25):
        for _ in range(30):
            x = ring.random_element(rng)
            assert parse_element(ring, ring.format_element(x)) == x


def test_prime_field_is_zmod_at_exponent_one():
    F5_as_zmod = IntegersModPrimePower(5, 1)
    assert F5_as_zmod == F5 and F5 == F5_as_zmod and hash(F5_as_zmod) == hash(F5)
    assert str(F5_as_zmod) == "F5" and F5_as_zmod.is_field and F5_as_zmod.has_section
    assert F5_as_zmod.residue_field is F5_as_zmod
    assert Z25.residue_field == F5 and str(Z25.residue_field) == "F5"
    assert F5 != Z25 and F5 != PrimeField(7)
    own = [k for k, v in vars(PrimeField).items() if callable(v) and k != "__init__"]
    assert own == []


def test_truncated_ring_reduces_by_base_characteristic():
    over_zmod = TruncatedPolynomialRing(IntegersModPrimePower(5, 1), "e", 2)
    assert over_zmod == TruncatedPolynomialRing(F5, "e", 2)
    assert over_zmod.mul((3, 1), (4, 2)) == (2, 0)
    assert over_zmod.dot([(3, 1), (1, 1)], [(4, 2), (1, 4)]) == (3, 0)


def test_truncation_to_exponent_one_lands_in_residue_field():
    h = truncation_map(Z25, 1)
    assert h.target == residue_map(Z25).target and str(h.target) == "F5"


@pytest.mark.parametrize(
    "build",
    [
        lambda: PrimeField(4),
        lambda: PrimeField(1),
        lambda: IntegersModPrimePower(6, 2),
        lambda: IntegersModPrimePower(5, 0),
        lambda: TruncatedPolynomialRing(F5, "e", 0),
    ],
    ids=["F4", "F1", "Z/6^2", "Z/5^0", "F5[e]/(e^0)"],
)
def test_bad_ring_parameters_raise_typed_errors(build):
    with pytest.raises(UnsupportedRing) as info:
        build()
    assert isinstance(info.value, CCSymError)


def test_draw_streams_are_pinned():
    # values from the separate F_p and Z/p^m classes this ring replaced; the
    # suites' seeded reports depend on them draw for draw
    expected = {
        (7, "random_unit"): [4, 6, 1, 3, 3, 2, 3, 5, 4, 2, 3, 1],
        (7, "random_nilpotent"): [0] * 12,
        (7, "random_element"): [3, 5, 0, 6, 6, 6, 2, 6, 2, 1, 2, 4],
        (25, "random_unit"): [13, 23, 9, 11, 6, 8, 18, 13, 11, 3, 13, 8],
        (25, "random_nilpotent"): [15, 0, 10, 10, 5, 10, 20, 15, 5, 10, 0, 15],
        (25, "random_element"): [13, 23, 0, 9, 11, 6, 8, 18, 13, 5, 11, 3],
    }
    rings = {7: PrimeField(7), 25: Z25}
    for (q, method), values in expected.items():
        rng = random.Random(12345)
        assert [getattr(rings[q], method)(rng) for _ in range(12)] == values, (q, method)
    mixed = {
        7: [(0, 4, 3), (0, 2, 4), (0, 2, 1), (0, 2, 1), (0, 1, 2), (0, 6, 3)],
        25: [(15, 12, 6), (20, 7, 7), (5, 24, 2), (10, 23, 12), (20, 21, 22), (20, 2, 19)],
    }
    for q, values in mixed.items():
        ring, rng = rings[q], random.Random(99)
        drawn = [
            (ring.random_nilpotent(rng), ring.random_unit(rng), ring.random_element(rng))
            for _ in range(6)
        ]
        assert drawn == values, q


@pytest.mark.parametrize(
    "spec, generator, x_level",
    [
        ("F5", None, False),
        ("Q", None, False),
        ("Z/25", None, False),
        ("F5[e]/(e^1)", None, False),
        ("F5[e]/(e^3)", (0, 1, 0), False),
        (
            "Q[e]/(e^2)",
            TruncatedPolynomialRing(Q, "e", 2).from_coefficients((Fraction(0), Fraction(1))),
            False,
        ),
        ("F5[x]/(x^1)", None, True),
        ("F5[x]/(x^3)", (0, 1, 0), True),
    ],
)
def test_ring_facts(spec, generator, x_level):
    # every ring answers generator() (or raises UnsupportedRing) and x_level;
    # its generator's name parses exactly when it has a nonzero generator
    ring = parse_ring(spec)
    name = "x" if x_level else "e"
    assert ring.x_level is x_level
    if generator is None:
        with pytest.raises(UnsupportedRing):
            ring.generator()
        with pytest.raises(ParseError):
            parse_element(ring, name)
    else:
        assert ring.generator() == generator
        assert parse_element(ring, name) == generator


def test_nilpotent_powers():
    assert A3.nilpotent_powers(A3.generator()) == [A3.one, (0, 1, 0), (0, 0, 1)]
    assert A3.nilpotent_powers((0, 0, 2)) == [A3.one, (0, 0, 2)]
    assert A3.nilpotent_powers(A3.zero) == [A3.one]
    assert Z25.nilpotent_powers(10) == [1, 10]
    half_e = QE3.from_coefficients((Fraction(0), Fraction(1, 2), Fraction(0)))
    assert QE3.nilpotent_powers(half_e) == [
        QE3.one,
        QE3.from_coefficients((0, Fraction(1, 2), 0)),
        QE3.from_coefficients((0, 0, Fraction(1, 4))),
    ]
    for ring, unit in ((A3, A3.one), (Z25, 2), (F5, 3), (Q, Fraction(1, 2))):
        with pytest.raises(InvariantViolation):
            ring.nilpotent_powers(unit)


@pytest.mark.parametrize("spec", ["F3[e]/(e^4)", "Q[e]/(e^3)"])
def test_pow_is_repeated_mul(spec):
    ring = parse_ring(spec)
    rng = random.Random(f"pow:{spec}")
    for x in [ring.random_unit(rng), ring.random_element(rng), ring.random_nilpotent(rng)]:
        power = ring.one
        for n in range(41):
            assert ring.pow(x, n) == power, (spec, x, n)
            power = ring.mul(power, x)


class _CountingRing(TruncatedPolynomialRing):
    """F_p[e]/(e^m) that counts its products."""

    products = 0

    def mul(self, x, y):
        self.products += 1
        return super().mul(x, y)


def test_pow_of_a_power_of_two_squares_only():
    ring = _CountingRing(F3, "e", 4)
    x = ring.from_coefficients((2, 1, 0, 1))
    for k in range(8):
        ring.products = 0
        ring.pow(x, 2**k)
        assert ring.products == k


# -- straight-line kernels against a plain convolution ----------------------


def _convolution(xs, ys, m):
    """The first m coefficients of the product of the coefficient lists xs, ys."""
    return [sum(xs[i] * ys[k - i] for i in range(k + 1)) for k in range(m)]


def _reference(ring):
    """add, sub, neg and mul of ring on base-field coefficients, by the book."""
    m, read, make = ring.order, ring.coefficients, ring.from_coefficients
    p = ring.characteristic

    def reduce(cs):
        return make([c % p for c in cs] if p else cs)

    return {
        "add": lambda x, y: reduce([a + b for a, b in zip(read(x), read(y))]),
        "sub": lambda x, y: reduce([a - b for a, b in zip(read(x), read(y))]),
        "neg": lambda x: reduce([-a for a in read(x)]),
        "mul": lambda x, y: reduce(_convolution(read(x), read(y), m)),
    }


def _check_against_reference(ring, pairs):
    ref = _reference(ring)
    for x, y in pairs:
        for name in ("add", "sub", "mul"):
            assert getattr(ring, name)(x, y) == ref[name](x, y), (str(ring), name, x, y)
        assert ring.neg(x) == ref["neg"](x), (str(ring), x)


@pytest.mark.parametrize("spec", ["F2[e]/(e^3)", "F3[e]/(e^2)"])
def test_kernels_on_every_pair(spec):
    ring = parse_ring(spec)
    elements = list(ring.iter_elements())
    _check_against_reference(ring, [(x, y) for x in elements for y in elements])


BOUND = STRAIGHT_LINE_ORDER


@pytest.mark.parametrize(
    "base, order",
    [(b, m) for b in (PrimeField(2), PrimeField(7)) for m in (1, 4, BOUND, BOUND + 1)]
    + [(Q, m) for m in (2, 3, 4, BOUND, BOUND + 1)],
    ids=str,
)
def test_kernels_on_random_pairs(base, order):
    ring = TruncatedPolynomialRing(base, "e", order)
    # kernels exist up to the bound; above it the class's loops run
    assert ("mul" in vars(ring)) == (order <= BOUND)
    rng = random.Random(f"kernels:{ring}")
    draws = [ring.random_element, ring.random_unit, ring.random_nilpotent]
    pairs = [(rng.choice(draws)(rng), rng.choice(draws)(rng)) for _ in range(60)]
    _check_against_reference(ring, pairs)
    for n in (0, 1, 5):
        xs, ys = [p[0] for p in pairs[:n]], [p[1] for p in pairs[:n]]
        total = ring.zero
        for x, y in zip(xs, ys):
            total = ring.add(total, ring.mul(x, y))
        assert ring.dot(xs, ys) == total


def _loop_sweep(ring, v, a, ks, off):
    """v[k] += a*v[k + off] over ks by the book: every slot, zero or not."""
    for k in ks:
        v[k] = ring.add(v[k], ring.mul(a, v[k + off]))


@pytest.mark.parametrize(
    "spec",
    ["F5", "Z/27", "Q", "F2[e]/(e^4)", "F7[e]/(e^3)", "Q[e]/(e^2)", "Q[e]/(e^3)",
     f"F7[e]/(e^{BOUND + 1})", f"Q[e]/(e^{BOUND + 1})"],
)
def test_sweep_matches_the_loop(spec):
    # the ring's sweep (generated up to the bound, else its class's) and the
    # generic one on Ring give the loop's window, upwards and downwards, over
    # windows with runs of zeros, for a = 0, a unit and a nilpotent
    ring = parse_ring(spec)
    assert ("sweep" in vars(ring)) == ("[e]" in spec and ring.width <= BOUND)
    rng = random.Random(f"sweep:{spec}")
    for _ in range(20):
        n = rng.randint(1, 24)
        v = [ring.random_element(rng) if rng.random() < 0.5 else ring.zero for _ in range(n)]
        run = rng.randint(0, n // 2)
        start = rng.randint(0, n - run)
        v[start : start + run] = [ring.zero] * run
        for a in (ring.zero, ring.random_unit(rng), ring.random_nilpotent(rng)):
            for i in (1, 2, 5):
                for ks, off in ((range(i, n), -i), (range(n - 1 - i, -1, -1), i)):
                    expected = list(v)
                    _loop_sweep(ring, expected, a, ks, off)
                    for sweep in (ring.sweep, lambda *args: Ring.sweep(ring, *args)):
                        w = list(v)
                        assert sweep(w, a, ks, off) is None
                        assert w == expected, (spec, a, i, off)


@pytest.mark.parametrize(
    "spec, every",
    [("F2[e]/(e^4)", True), ("F3[e]/(e^3)", True), ("F7[e]/(e^2)", True),
     ("Q[e]/(e^2)", False), ("Q[e]/(e^3)", False), (f"F7[e]/(e^{BOUND + 1})", False)],
)
def test_inv_matches_the_back_substitution(spec, every):
    # the ring's inv (generated up to the bound, else its class's) against the
    # class's back-substitution, on every unit of a small ring or on random
    # units, and with the class's NonUnit message on a nilpotent
    ring = parse_ring(spec)
    back = type(ring).inv
    assert ("inv" in vars(ring)) == (ring.width <= BOUND)
    rng = random.Random(f"inv:{spec}")
    if every:
        units = [x for x in ring.iter_elements() if ring.is_unit(x)]
    else:
        units = [ring.random_unit(rng) for _ in range(300)]
    for x in units:
        assert ring.inv(x) == back(ring, x), (spec, x)
        assert ring.mul(x, ring.inv(x)) == ring.one
    for x in (ring.zero, ring.generator(), ring.random_nilpotent(rng)):
        with pytest.raises(NonUnit) as got:
            ring.inv(x)
        with pytest.raises(NonUnit) as want:
            back(ring, x)
        assert str(got.value) == str(want.value) != ""


@pytest.mark.parametrize(
    "spec",
    ["F3[e]/(e^2)", "F2[e]/(e^33)", "Z/25", "F5", "Q", "Q[e]/(e^3)", "Q[e]/(e^33)"],
)
def test_every_ring_layout_pickles(spec):
    ring = parse_ring(spec)
    copy = pickle.loads(pickle.dumps(ring))
    assert copy == ring and type(copy) is type(ring)
    x = ring.random_unit(random.Random(spec))
    assert copy.mul(x, copy.inv(x)) == copy.one
