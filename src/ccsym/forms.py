"""Kahler differential forms over A((t)) and their residues.

One-forms are written f*dt + g*de and two-forms h*de^dt, where e is the
nilpotent generator of A (for a field A the de-components vanish since
Omega^1_A = 0).  The de-coefficients are stored modulo the annihilator
relation m*e^(m-1)*de = 0, so equality of forms is equality of normal
forms.  res1 extracts the t^-1 coefficient of the dt-part, res2 the
t^-1 coefficient of h; both refuse to answer when that coefficient lies
beyond the known precision.

Rings without a ring-homomorphism section of the residue map (Z/p^m for
m > 1) are rejected: their module of forms over the residue field is not
the one any of the residue identities are about.
"""

from __future__ import annotations

from .errors import IdentityViolated, MixedRings, UnsupportedRing
from .rings import Ring, RingMap, format_sum
from .series import DEFAULT_PRECISION, INF, LaurentSeries, _split_unit
from .symbols import MHatElement, contou_carrere, kato_residue


def _require_section(ring: Ring) -> None:
    if not ring.has_section:
        raise UnsupportedRing(
            f"{ring} has no coefficient-field section; differential forms unsupported"
        )


def _has_annihilator(ring: Ring) -> bool:
    """Whether e^(m-1)*de = 0 holds (the relation m*e^(m-1)*de = 0 with m a unit);
    a ring with a section that is not a field is k[e]/(e^m), m >= 2."""
    if ring.is_field:
        return False
    char = ring.characteristic
    return char == 0 or ring.nilpotency_index % char != 0


def _d_e(ring: Ring, x):
    """dx/de; zero over a field, whose Omega^1 over itself vanishes."""
    return ring.zero if ring.is_field else ring.d_epsilon(x)


def reduce_de_coefficient(ring: Ring, c):
    """Canonical representative of c as a de-coefficient in Omega^1_A."""
    _require_section(ring)
    if ring.is_field:
        return ring.zero
    return ring.drop_top(c) if _has_annihilator(ring) else c


def _reduce_de_series(s: LaurentSeries) -> LaurentSeries:
    ring = s.ring
    if ring.is_field:
        return LaurentSeries.zero(ring)
    if not _has_annihilator(ring):
        return s
    return LaurentSeries(ring, s.ell, map(ring.drop_top, s.coeffs), s.prec)


class AOneForm:
    """An element c*de of Omega^1_A, in canonical (annihilator-reduced) form."""

    __slots__ = ("ring", "coeff")

    def __init__(self, ring: Ring, coeff):
        _require_section(ring)
        self.ring = ring
        self.coeff = reduce_de_coefficient(ring, coeff)

    @classmethod
    def zero(cls, ring: Ring) -> AOneForm:
        return cls(ring, ring.zero)

    def __add__(self, other: AOneForm) -> AOneForm:
        if self.ring != other.ring:
            raise MixedRings("cannot add forms over different rings")
        return AOneForm(self.ring, self.ring.add(self.coeff, other.coeff))

    def __neg__(self) -> AOneForm:
        return AOneForm(self.ring, self.ring.neg(self.coeff))

    def __sub__(self, other: AOneForm) -> AOneForm:
        return self + (-other)

    def scale(self, a) -> AOneForm:
        return AOneForm(self.ring, self.ring.mul(a, self.coeff))

    def is_zero(self) -> bool:
        return self.ring.is_zero(self.coeff)

    def __eq__(self, other):
        return (
            isinstance(other, AOneForm)
            and self.ring == other.ring
            and self.coeff == other.coeff
        )

    def __hash__(self):
        return hash((self.ring, self.coeff))

    def format(self) -> str:
        """The one term c*de by format_sum: ``de``, ``-de``, ``(1+e)*de``, ``0``."""
        return format_sum([(self.ring.format_element(self.coeff), "d" + self.ring.gen)])

    def __repr__(self):
        return f"AOneForm({self.ring}, {self.format()})"


class OneForm:
    """f*dt + g*de with f, g in A((t)); g is annihilator-reduced."""

    __slots__ = ("ring", "dt", "de")

    def __init__(self, dt: LaurentSeries, de: LaurentSeries):
        if dt.ring != de.ring:
            raise MixedRings("components live over different rings")
        _require_section(dt.ring)
        self.ring = dt.ring
        self.dt = dt
        self.de = _reduce_de_series(de)

    def __add__(self, other: OneForm) -> OneForm:
        return OneForm(self.dt + other.dt, self.de + other.de)

    def __neg__(self) -> OneForm:
        return OneForm(-self.dt, -self.de)

    def __sub__(self, other: OneForm) -> OneForm:
        return self + (-other)

    def series_mul(self, s: LaurentSeries) -> OneForm:
        return OneForm(s * self.dt, s * self.de)

    def __eq__(self, other):
        return (
            isinstance(other, OneForm)
            and self.dt == other.dt
            and self.de == other.de
        )

    def format(self) -> str:
        return f"({self.dt.format()})*dt + ({self.de.format()})*d{self.ring.gen}"

    def __repr__(self):
        return f"OneForm({self.format()})"


class TwoForm:
    """h*de^dt, the normal form of a two-form over A((t))."""

    __slots__ = ("ring", "h")

    def __init__(self, h: LaurentSeries):
        _require_section(h.ring)
        self.ring = h.ring
        self.h = _reduce_de_series(h) if not h.ring.is_field else LaurentSeries.zero(h.ring, h.prec)

    def __add__(self, other: TwoForm) -> TwoForm:
        return TwoForm(self.h + other.h)

    def __neg__(self) -> TwoForm:
        return TwoForm(-self.h)

    def series_mul(self, s: LaurentSeries) -> TwoForm:
        return TwoForm(s * self.h)

    def __eq__(self, other):
        return isinstance(other, TwoForm) and self.h == other.h

    def format(self) -> str:
        return f"({self.h.format()})*d{self.ring.gen}^dt"

    def __repr__(self):
        return f"TwoForm({self.format()})"


def d_series(f: LaurentSeries) -> OneForm:
    """Exterior derivative df = f'*dt + (df/de)*de."""
    ring = f.ring
    _require_section(ring)
    de = LaurentSeries(ring, f.ell, (_d_e(ring, c) for c in f.coeffs), f.prec)
    return OneForm(f.derivative(), de)


def _split_dlog(f: LaurentSeries, cap=None) -> OneForm:
    """dlog f = w*dt/t + dlog c + h^-1*(h' dt + (h_e - dlog(c)*h) de) - dlog G
    from the split f = t^w*h/G, c = f(w); G = prod (1 - a*t^-d)^-1 over the
    split's negative coordinates a = a_{-d}, so dlog G = sum_k (-d*a^k
    t^(-dk-1) dt + a_e*a^(k-1) t^(-dk) de) exactly.  Only h is inverted, cut
    at t^cap (_UnitSplit.h_inverse); h_e - dlog(c)*h = c*(h/c)_e starts where
    h/c - 1 does, so its product with that cut inverse is known further."""
    ring = f.ring
    _require_section(ring)
    split = _split_unit(f)
    h, c = split.h, f.coeff(split.w)
    dlog_c = ring.mul(ring.inv(c), _d_e(ring, c))
    dt = {-1: ring.from_int(split.w)}
    de = {0: dlog_c}
    for d, a in split.neg.items():
        a_e = _d_e(ring, a)
        for k, power in enumerate(ring.nilpotent_powers(a)):
            if k:
                dt[-d * k - 1] = ring.add(dt.get(-d * k - 1, ring.zero), ring.mul(ring.from_int(d), power))
            de[-d * k - d] = ring.sub(de.get(-d * k - d, ring.zero), ring.mul(a_e, power))
    inv_h, dh = split.h_inverse(cap), d_series(h)
    h_e = dh.de if ring.is_zero(dlog_c) else dh.de + h.scalar_mul(ring.neg(dlog_c))
    return OneForm(
        LaurentSeries.from_terms(ring, dt) + inv_h * dh.dt,
        LaurentSeries.from_terms(ring, de) + inv_h * h_e,
    )


def dlog(f: LaurentSeries) -> OneForm:
    """Logarithmic differential f^-1 df of a unit series, read off its split
    (see dlog2); an exact h is inverted below DEFAULT_PRECISION."""
    return _split_dlog(f)


def dlog_element(ring: Ring, a) -> AOneForm:
    """dlog of a unit of A, an element of Omega^1_A."""
    _require_section(ring)
    if ring.is_field:
        ring.inv(a)  # unit check; Omega^1 of a field over itself vanishes
        return AOneForm.zero(ring)
    return AOneForm(ring, ring.mul(ring.inv(a), ring.d_epsilon(a)))


def wedge(alpha: OneForm, beta: OneForm) -> TwoForm:
    """alpha ^ beta in the normal form (de_a*dt_b - dt_a*de_b)*de^dt."""
    return TwoForm(alpha.de * beta.dt - alpha.dt * beta.de)


def dlog2(f: LaurentSeries, g: LaurentSeries) -> TwoForm:
    """dlog(f) ^ dlog(g) for unit series f, g.

    Each argument is read off its split f = t^w*h/G, c = f(w):

        dlog f = w*dt/t + dlog c + h^-1*(h' dt + (h_e - dlog(c)*h) de) - dlog G,

    with dlog G exact from the negative coordinates (_split_dlog).  Only the
    power series h is inverted, so dlog f loses h's precision alone: it is
    known below h.prec - 1 = f.prec - w + ell(G) - 1.  An exact argument's
    h^-1 is cut at max(DEFAULT_PRECISION, 1 - ell(f) - ell(g) - L_f - L_g),
    L_f = ell(G) - w: dlog f starts no lower than L_f + ell(f) - 1, so the
    wedge is known below -ell(g) - L_g >= 0, past its t^-1 coefficient.
    """
    sf, sg = _split_unit(f), _split_unit(g)
    low = sf.geom.ell - sf.w + sg.geom.ell - sg.w
    cap = max(DEFAULT_PRECISION, 1 - f.ell - g.ell - low)
    return wedge(
        _split_dlog(f, cap if f.prec == INF else None),
        _split_dlog(g, cap if g.prec == INF else None),
    )


def res1(alpha: OneForm):
    """Residue of a one-form: the t^-1 coefficient of its dt-component."""
    return alpha.dt.coeff(-1)


def res2(omega: TwoForm) -> AOneForm:
    """Residue of a two-form h*de^dt: (t^-1 coefficient of h)*de."""
    return AOneForm(omega.ring, omega.h.coeff(-1))


def res2_dlog2(f: LaurentSeries, g: LaurentSeries) -> AOneForm:
    """res2(dlog2(f, g)), checked equal to dlog of the symbol <f, g>."""
    lhs = res2(dlog2(f, g))
    rhs = dlog_element(f.ring, contou_carrere(f, g))
    if lhs != rhs:
        msg = f"residue square violated: res2(dlog2) = {lhs.format()} but dlog<f,g> = {rhs.format()}"
        raise IdentityViolated(msg, lhs, rhs)
    return lhs


def form_substitute(sigma: LaurentSeries, form):
    """Pull a form back along t -> sigma(t): dt -> sigma'dt + (dsigma/de)de,
    each coefficient series composed by LaurentSeries.substitute, so the
    result carries the precision that substitution propagates."""
    dsigma = d_series(sigma)
    if isinstance(form, OneForm):
        ft = form.dt.substitute(sigma)
        fe = form.de.substitute(sigma)
        return OneForm(ft * dsigma.dt, ft * dsigma.de + fe)
    if isinstance(form, TwoForm):
        # h de^dt -> (h o sigma) de^(sigma' dt); the de^de part dies
        return TwoForm(form.h.substitute(sigma) * dsigma.dt)
    if isinstance(form, AOneForm):
        return form
    raise TypeError(f"cannot substitute into {type(form).__name__}")


def map_form(h: RingMap, form):
    """Base change of forms along a coefficient homomorphism.

    The de-components pick up the chain factor d(h(e))/de', read off the
    generator image h.gen_image: zero for the residue map onto the
    coefficient field; a map with no image (a truncation) is refused.
    """
    target = h.target
    _require_section(target)
    if h.gen_image is None:
        raise UnsupportedRing(f"forms cannot be based-changed along {h!r}")
    chain = _d_e(target, h.gen_image)
    if isinstance(form, AOneForm):
        return AOneForm(target, target.mul(h(form.coeff), chain))
    if isinstance(form, OneForm):
        de = form.de.map_coefficients(h).scalar_mul(chain)
        return OneForm(form.dt.map_coefficients(h), de)
    if isinstance(form, TwoForm):
        return TwoForm(form.h.map_coefficients(h).scalar_mul(chain))
    raise TypeError(f"cannot base change {type(form).__name__}")


def log_square_check(f: MHatElement, g: MHatElement):
    """The levelwise residue square for x^e * unit elements.

    Splits the value of the symbol {f, g} into its dx/x multiplicity and
    its regular Omega^1 part and compares both against the two-form
    residue route: the multiplicity must equal e1*w(u2) - e2*w(u1) (also
    recovered from residues of the logarithmic derivatives), and the
    regular part must satisfy res2(dlog2(u1, u2)) = dlog{u1, u2}.
    Returns the Kato value; raises IdentityViolated on any mismatch.
    """
    ring = f.ring
    kv = kato_residue(f, g)
    w1, w2 = f.deg(), g.deg()
    expected = f.exponent * w2 - g.exponent * w1
    if kv.exponent != expected:
        raise IdentityViolated(
            "dx/x multiplicity disagrees with winding bookkeeping", kv.exponent, expected
        )
    for u, w in ((f.unit, w1), (g.unit, w2)):
        residue, winding = res1(dlog(u)), ring.from_int(w)
        if residue != winding:
            raise IdentityViolated("res1(dlog u) != winding number in A", residue, winding)
    lhs = res2(dlog2(f.unit, g.unit))
    rhs = dlog_element(ring, kv.unit)
    if lhs != rhs:
        raise IdentityViolated(
            f"levelwise square violated: {lhs.format()} != {rhs.format()}", lhs, rhs
        )
    return kv
