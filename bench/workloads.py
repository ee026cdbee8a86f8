"""The benchmark's workloads: seeded inputs, the ccsym calls of one op, and its oracle.

Inputs are drawn with the benchmark's own ``random.Random``, never with
ccsym's random helpers or suites, so a change to the library's draw stream
cannot change a workload.  Ring elements are built through public ring
operations (``from_int``, ``generator``, ``add``, ``mul``) so that a change to
the library's internal element representation does not change them either.

Each workload supplies:

* ``specs``: the ring specs it parses at set-up;
* ``draw(rng, idx)``: the plain-data inputs of op ``idx`` (no ccsym objects);
* ``build(cc, rings, draw)``: the op, with its inputs as ccsym objects or text;
* ``run(cc, op, tr)``: the timed ccsym calls, each inside a span of ``tr``;
* ``check(cc, op, out)``: the exact oracle;
* ``probe(cc, op, out, tr)``: traced-run probe calls, returning exact counts;
* ``result_text(op, out)``: the formatted result that enters the digest.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

#: bits of the filter that remembers the inputs already drawn.  It has a fixed
#: size, so the benchmark's memory does not grow with the ops a run completes
#: and peak_rss_mb does not follow throughput.
SEEN_BITS = 1 << 23
#: filter bits set per input; at 100k ops a new input is skipped as seen with
#: probability below 1e-4, and a seen one is never taken as new.
SEEN_HASHES = 3
#: calls of ``ring.dot`` timed per probe; one call on a short vector lasts
#: about a microsecond, below the clock's useful resolution.
DOT_REPS = 20


@dataclass(frozen=True)
class RingSpec:
    """A coefficient ring as the benchmark draws from it.

    ``kind`` is "Fp" (F_p), "Fpe" (F_p[gen]/(gen^m)), "Qe" (Q[e]/(e^m)) or
    "Zpm" (Z/p^m); ``p`` is the residue characteristic (0 for Q) and ``m``
    the nilpotency index.
    """

    text: str
    kind: str
    p: int
    m: int
    gen: str = "e"


def fpe(p: int, m: int, gen: str = "e") -> RingSpec:
    return RingSpec(f"F{p}[{gen}]/({gen}^{m})", "Fpe", p, m, gen)


def qe(m: int) -> RingSpec:
    return RingSpec(f"Q[e]/(e^{m})", "Qe", 0, m)


def zpm(p: int, m: int) -> RingSpec:
    return RingSpec(f"Z/{p ** m}", "Zpm", p, m)


def fp(p: int) -> RingSpec:
    return RingSpec(f"F{p}", "Fp", p, 1)


# -- raw draws: plain Python data, interpreted by RingSpec -------------------
#
# A raw element of an Fpe/Qe ring is its coefficient tuple in the generator;
# of an Fp/Zpm ring, a 1-tuple holding its integer value.


def _scalar(rng, spec: RingSpec, unit: bool):
    if spec.kind == "Qe":
        num = rng.choice([n for n in range(-6, 7) if n]) if unit else rng.randint(-6, 6)
        return Fraction(num, rng.randint(1, 4))
    return rng.randrange(1, spec.p) if unit else rng.randrange(spec.p)


def draw_element(rng, spec: RingSpec) -> tuple:
    if spec.kind in ("Fp", "Zpm"):
        return (rng.randrange(spec.p ** spec.m),)
    return tuple(_scalar(rng, spec, False) for _ in range(spec.m))


def draw_unit(rng, spec: RingSpec) -> tuple:
    if spec.kind in ("Fp", "Zpm"):
        q = spec.p ** (spec.m - 1)
        return (rng.randrange(1, spec.p) + spec.p * rng.randrange(q),)
    return (_scalar(rng, spec, True),) + tuple(
        _scalar(rng, spec, False) for _ in range(spec.m - 1)
    )


def draw_nilpotent(rng, spec: RingSpec, valuation_one: bool = False) -> tuple:
    """A nonzero nilpotent; with ``valuation_one``, one outside m^2."""
    if spec.kind == "Zpm":
        q = spec.p ** (spec.m - 1)
        while True:
            k = rng.randrange(1, q)
            if not (valuation_one and k % spec.p == 0):
                return (spec.p * k,)
    while True:
        first = _scalar(rng, spec, True) if valuation_one else _scalar(rng, spec, False)
        rest = tuple(_scalar(rng, spec, False) for _ in range(spec.m - 2))
        raw = (0, first) + rest
        if any(raw):
            return raw


def element(ring, spec: RingSpec, raw: tuple):
    """The ring element a raw draw stands for, built from public ring operations."""
    if spec.kind in ("Fp", "Zpm"):
        return ring.from_int(raw[0])
    gen = ring.generator()
    acc, power = ring.zero, ring.one
    for c in raw:
        if c:
            if isinstance(c, Fraction):
                c = ring.mul(ring.from_int(c.numerator), ring.inv(ring.from_int(c.denominator)))
            else:
                c = ring.from_int(c)
            acc = ring.add(acc, ring.mul(c, power))
        power = ring.mul(power, gen)
    return acc


def element_text(spec: RingSpec, raw: tuple) -> str:
    """Parser text for a raw element, parenthesized when it has several terms."""
    if spec.kind in ("Fp", "Zpm"):
        return str(raw[0])
    parts = []
    for i, c in enumerate(raw):
        if not c:
            continue
        var = spec.gen if i == 1 else f"{spec.gen}^{i}"
        if i == 0:
            parts.append(str(c))
        else:
            parts.append(var if c == 1 else f"{c}*{var}")
    if not parts:
        return "0"
    return parts[0] if len(parts) == 1 else "(" + " + ".join(parts) + ")"


@dataclass
class Op:
    """One op: its ring, the size it is fitted against, and its built inputs."""

    idx: int
    spec: RingSpec
    depth: int
    group: str
    ring: object
    data: dict


@dataclass
class Outcome:
    """What one op returned, plus the retries it took."""

    value: object
    attempts: int = 1
    raises: dict = field(default_factory=dict)
    operands: tuple = ()


def series_probe(cc, tr, spec: RingSpec, ring, f, g) -> dict:
    """Time the lower layers on an op's own series operands.

    These calls run again outside the op, so they are reported on their own
    and never counted as children of the op's spans.
    """
    counts = {"series.window": len(f.coeffs) + len(g.coeffs)}
    with tr.span("series.mul", probe=True):
        f * g
    with tr.span("series.inverse", probe=True):
        f.inverse()
        g.inverse()
    dot_probe(tr, spec, ring, f.coeffs, g.coeffs[::-1])
    with tr.span("symbols.required_precision", probe=True):
        req_f, req_g = cc.required_precision(f, g)
    with tr.span("symbols.witt_decompose", probe=True):
        df = cc.witt_decompose(f, prec=req_f)
        dg = cc.witt_decompose(g, prec=req_g)
    counts["symbols.window"] = req_f + req_g
    counts["symbols.pos_coords"] = len(df.pos) + len(dg.pos)
    return counts


def dot_probe(tr, spec: RingSpec, ring, xs, ys) -> None:
    """Time ``ring.dot`` on two coefficient vectors; not reported for F_p."""
    n = min(len(xs), len(ys))
    if spec.kind == "Fp" or n == 0:
        return
    xs, ys = tuple(xs[:n]), tuple(ys[:n])
    with tr.span(f"rings.dot.{spec.kind}", probe=True, reps=DOT_REPS):
        for _ in range(DOT_REPS):
            ring.dot(xs, ys)


# -- square ------------------------------------------------------------------


class Square:
    """res2(dlog2(f, g)) = dlog<f, g> on dense random unit pairs.

    The 14 rings of the residue-square acceptance criterion; each unit has
    dense coefficients from t^-depth to t^DENSE (nilpotent below t^0) and a
    winding number in [-2, 2].  Windows start at 16 and double on a precision
    error, up to five attempts, as the library's suites retry.
    """

    name = "square"
    specs = tuple(fpe(p, m) for p in (2, 3, 5, 7) for m in (2, 3, 4)) + (qe(2), qe(3))
    DEPTHS = (1, 2)
    DENSE = 12
    START_WINDOW = 16
    ATTEMPTS = 5

    def draw(self, rng, idx):
        spec = self.specs[idx % len(self.specs)]
        depth = self.DEPTHS[(idx // len(self.specs)) % len(self.DEPTHS)]
        return spec, depth, (self._unit(rng, spec, depth), self._unit(rng, spec, depth))

    def _unit(self, rng, spec, depth):
        terms = {-depth: draw_nilpotent(rng, spec)}
        for i in range(1 - depth, 0):
            terms[i] = draw_nilpotent(rng, spec) if rng.random() < 0.75 else None
        terms[0] = draw_unit(rng, spec)
        for i in range(1, self.DENSE + 1):
            terms[i] = draw_element(rng, spec)
        return rng.randint(-2, 2), {i: c for i, c in terms.items() if c is not None}

    def build(self, cc, rings, draw):
        spec, depth, pair = draw
        ring = rings[spec.text]
        data = {}
        for name, (w, terms) in zip("fg", pair):
            coeffs = {i: element(ring, spec, raw) for i, raw in terms.items()}
            data[name] = (w, cc.LaurentSeries.from_terms(ring, coeffs))
        return spec, depth, spec.text, ring, data

    def run(self, cc, op, tr):
        (wf, f0), (wg, g0) = op.data["f"], op.data["g"]
        ring = op.ring
        window = self.START_WINDOW
        raises = {"forms": 0, "symbols": 0}
        for attempt in range(1, self.ATTEMPTS + 1):
            with tr.span("series.truncate"):
                f = f0.truncate(window).shift(wf)
                g = g0.truncate(window).shift(wg)
            layer = "forms"
            try:
                with tr.span("forms.dlog2"):
                    omega = cc.dlog2(f, g)
                with tr.span("forms.res2"):
                    lhs = cc.res2(omega)
                layer = "symbols"
                with tr.span("symbols.contou_carrere"):
                    value = cc.contou_carrere(f, g)
                layer = "forms"
                with tr.span("forms.dlog_element"):
                    rhs = cc.dlog_element(ring, value)
            except (cc.InsufficientPrecision, cc.IndeterminateAtPrecision):
                if attempt == self.ATTEMPTS:
                    raise
                raises[layer] += 1
                window *= 2
                continue
            return Outcome((lhs, rhs), attempt, raises, (f, g))

    def check(self, cc, op, out):
        lhs, rhs = out.value
        return lhs == rhs

    def probe(self, cc, op, out, tr):
        counts = series_probe(cc, tr, op.spec, op.ring, *out.operands)
        counts["forms.precision_raises"] = out.raises["forms"]
        counts["symbols.precision_raises"] = out.raises["symbols"]
        return counts

    def result_text(self, op, out):
        return f"{op.spec.text}|{out.value[0].format()}"


# -- deep-pole ---------------------------------------------------------------


class DeepPole:
    """<1 - a t^-n, u0 t^w prod_k (1 - b_k t^m_k)> on exact inputs.

    ``a`` has nilpotent valuation 1 and the b_k are units, so the symbol has
    the closed form prod_k (1 - a^(m_k/d_k) b_k^(n/d_k))^(-d_k) with
    d_k = gcd(n, m_k).  The symbol needs g's coordinates over a window of
    e*n (e the nilpotency index); n/4 distinct m_k are drawn inside it, so the
    number of peeled coordinates grows with n as it does for a dense g.  Half
    of them are q*d with d | n and q < e, whose closed-form factor is not 1.
    Each ring runs through LEVELS depths spread log-uniformly over
    [MIN_DEPTH, MAX_DEPTH] in turn, so every stretch of a run has the same mix
    of depths, and latency quantiles fall among many levels rather than
    between a few clusters.
    """

    name = "deep-pole"
    specs = (fpe(3, 4), zpm(3, 4), qe(2))
    MIN_DEPTH = 8
    MAX_DEPTH = 48
    LEVELS = 32

    def draw(self, rng, idx):
        spec = self.specs[idx % len(self.specs)]
        level = (idx // len(self.specs)) * 13 % self.LEVELS
        n = round(self.MIN_DEPTH * (self.MAX_DEPTH / self.MIN_DEPTH) ** (level / (self.LEVELS - 1)))
        a = draw_nilpotent(rng, spec, valuation_one=True)
        u0 = draw_unit(rng, spec)
        w = rng.randint(-3, 3)
        window = spec.m * n
        k = n // 4
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        friendly = sorted({q * d for d in divisors for q in range(1, spec.m) if q * d < window})
        ms = rng.sample(friendly, min(len(friendly), (k + 1) // 2))
        ms += rng.sample([m for m in range(1, window) if m not in ms], k - len(ms))
        return spec, n, (a, u0, w, tuple((m, draw_unit(rng, spec)) for m in ms))

    def build(self, cc, rings, draw):
        spec, n, (a, u0, w, factors) = draw
        ring = rings[spec.text]
        LS = cc.LaurentSeries
        a = element(ring, spec, a)
        f = LS.one(ring) - LS.t_power(ring, -n, a)
        bs = [(m, element(ring, spec, b)) for m, b in factors]
        # expand the product sparsely: a dense series product would cost more
        # than the op itself
        terms = {0: element(ring, spec, u0)}
        for m, b in bs:
            nb = ring.neg(b)
            out = dict(terms)
            for i, c in terms.items():
                out[i + m] = ring.add(out.get(i + m, ring.zero), ring.mul(c, nb))
            terms = out
        g = LS.from_terms(ring, terms).shift(w)
        return spec, n, spec.text, ring, {"f": f, "g": g, "n": n, "a": a, "factors": bs}

    def run(self, cc, op, tr):
        f, g = op.data["f"], op.data["g"]
        with tr.span("symbols.contou_carrere"):
            value = cc.contou_carrere(f, g)
        return Outcome(value, operands=(f, g))

    def check(self, cc, op, out):
        return out.value == closed_form(op.ring, op.data["n"], op.data["a"], op.data["factors"])

    def probe(self, cc, op, out, tr):
        return series_probe(cc, tr, op.spec, op.ring, *out.operands)

    def result_text(self, op, out):
        return f"{op.spec.text}|{op.ring.format_element(out.value)}"


def closed_form(ring, n: int, a, factors):
    """prod_k (1 - a^(m_k/d_k) b_k^(n/d_k))^(-d_k), d_k = gcd(n, m_k)."""
    out = ring.one
    for m, b in factors:
        d = gcd(n, m)
        term = ring.sub(ring.one, ring.mul(ring.pow(a, m // d), ring.pow(b, n // d)))
        out = ring.mul(out, ring.pow(ring.inv(term), d))
    return out


# -- laws --------------------------------------------------------------------


class Laws:
    """Text in, verdict out: parse the op's inputs, then check one law.

    Kinds rotate through Anderson-Romo reciprocity (F_p[e]/(e^2), Z/p^2),
    Weil reciprocity (F_p), the residue sum on P^1 (F_p[e]/(e^2)) and the
    Kato symbol over F_p[x]/(x^n), which must agree with its value one level
    down.  ``depth`` bounds the exponents, pole orders and negative z-tail.
    """

    name = "laws"
    KINDS = {
        "anderson_romo": (fpe(3, 2), fpe(5, 2), fpe(7, 2), zpm(3, 2), zpm(5, 2), zpm(7, 2)),
        "weil": (fp(5), fp(7), fp(11), fp(13)),
        "residue_sum": (fpe(3, 2), fpe(5, 2), fpe(7, 2)),
        "kato": (fpe(3, 2, "x"), fpe(3, 3, "x"), fpe(5, 2, "x"), fpe(5, 3, "x")),
    }
    specs = tuple(dict.fromkeys(s for specs in KINDS.values() for s in specs))
    DEPTHS = (1, 2, 3)

    def draw(self, rng, idx):
        kinds = tuple(self.KINDS)
        kind = kinds[idx % len(kinds)]
        depth = self.DEPTHS[(idx // len(kinds)) % len(self.DEPTHS)]
        specs = self.KINDS[kind]
        spec = specs[(idx // (len(kinds) * len(self.DEPTHS))) % len(specs)]
        if kind in ("anderson_romo", "weil"):
            sections = self._sections(rng, spec)
            texts = (self._function(rng, spec, sections, depth),
                     self._function(rng, spec, sections, depth))
        elif kind == "residue_sum":
            texts = (self._two_form(rng, spec, depth),)
        else:
            return spec, depth, (kind,) + self._kato_pair(rng, spec, depth)
        return spec, depth, (kind, texts, None)

    def _sections(self, rng, spec):
        """1-3 section values with distinct residues, perturbed by nilpotents."""
        out = []
        for r in rng.sample(range(spec.p), rng.randint(1, 3)):
            if spec.kind == "Fpe":
                out.append((r, rng.randrange(spec.p)))
            elif spec.kind == "Zpm":
                out.append((r + spec.p * rng.randrange(spec.p),))
            else:
                out.append((r,))
        return out

    def _function(self, rng, spec, sections, depth):
        """c * prod (x - s)^n over the shared sections; one |n| equals depth."""
        parts = [f"({element_text(spec, draw_unit(rng, spec))})"]
        deepest = rng.randrange(len(sections))
        for i, s in enumerate(sections):
            if i != deepest and rng.random() < 0.3:
                continue
            n = depth if i == deepest else rng.randint(1, depth)
            n = n if rng.random() < 0.5 else -n
            parts.append(f"(x - {element_text(spec, s)})" + ("" if n == 1 else f"^{n}"))
        return " * ".join(parts)

    def _two_form(self, rng, spec, depth):
        """Poles of order <= depth (one of order depth) plus a polynomial tail."""
        sections = self._sections(rng, spec)
        deepest = rng.randrange(len(sections))
        terms = []
        for i, s in enumerate(sections):
            orders = range(1, depth + 1) if i == deepest else range(1, rng.randint(1, depth) + 1)
            for k in orders:
                c = element_text(spec, draw_unit(rng, spec))
                pole = f"(x - {element_text(spec, s)})" + ("" if k == 1 else f"^{k}")
                terms.append(f"({c})*d{spec.gen}/{pole}")
        for j in range(rng.randint(0, 2)):
            c = element_text(spec, draw_unit(rng, spec))
            terms.append(f"({c})*d{spec.gen}" + ("" if j == 0 else "*x" if j == 1 else f"*x^{j}"))
        return " + ".join(terms)

    def _kato_pair(self, rng, spec, depth):
        """Two x^e * (unit z-series) texts with a nilpotent z-tail of given depth."""
        texts, exps, windings = [], [], []
        for _ in range(2):
            e = rng.randint(-2, 2)
            w = rng.randint(-2, 2)
            terms = {-depth: draw_nilpotent(rng, spec)}
            for i in range(1 - depth, 0):
                if rng.random() < 0.5:
                    terms[i] = draw_nilpotent(rng, spec)
            terms[0] = draw_unit(rng, spec)
            for i in range(1, 4):
                terms[i] = draw_element(rng, spec)
            body = " + ".join(
                f"{element_text(spec, c)}*z^{i + w}" for i, c in sorted(terms.items()) if any(c)
            )
            texts.append(f"({body})" if e == 0 else f"x^{e} * ({body})")
            exps.append(e)
            windings.append(w)
        return tuple(texts), exps[0] * windings[1] - exps[1] * windings[0]

    def build(self, cc, rings, draw):
        spec, depth, (kind, texts, exponent) = draw
        data = {"kind": kind, "texts": texts, "exponent": exponent}
        return spec, depth, f"{kind}:{spec.text}", rings[spec.text], data

    def run(self, cc, op, tr):
        kind, texts = op.data["kind"], op.data["texts"]
        with tr.span("parsing.parse"):
            ring = cc.parse_ring(op.spec.text)
            if kind in ("anderson_romo", "weil"):
                args = [cc.parse_rational_function(ring, t) for t in texts]
            elif kind == "residue_sum":
                args = [cc.parse_global_two_form(ring, texts[0])]
            else:
                args = [cc.parse_mhat(ring, t) for t in texts]
        if kind == "kato":
            with tr.span("symbols.kato_residue"):
                value = cc.kato_residue(*args)
        else:
            with tr.span(f"projline.{kind}"):
                value = getattr(cc, f"{kind}_check")(*args)
        return Outcome(value, operands=tuple(args))

    def check(self, cc, op, out):
        if op.data["kind"] != "kato":
            return out.value.passed
        f, g = out.operands
        kv = out.value
        drop = _level_drop(cc, f.ring)
        low = cc.kato_residue(f.map_level(drop), g.map_level(drop))
        return kv.exponent == op.data["exponent"] and kv.map_level(drop) == low

    def probe(self, cc, op, out, tr):
        kind = op.data["kind"]
        if kind == "kato":
            f, g = out.operands
            return series_probe(cc, tr, op.spec, op.ring, f.unit, g.unit)
        if kind == "anderson_romo":
            f, g = out.operands
            dot_probe(tr, op.spec, f.ring, [f.constant, *f.factors], [g.constant, *g.factors])
        return {"projline.points": len(out.value.per_point)}

    def result_text(self, op, out):
        kind = op.data["kind"]
        if kind == "kato":
            return f"{kind}|{op.spec.text}|{out.value.format()}"
        product = out.value.product
        text = product.format() if kind == "residue_sum" else op.ring.format_element(product)
        return f"{kind}|{op.spec.text}|{out.value.passed}|{text}"


def _level_drop(cc, ring):
    """The truncation k[x]/(x^m) -> k[x]/(x^(m-1)), x -> x."""
    lower = cc.TruncatedPolynomialRing(ring.base, "x", ring.order - 1)
    image = lower.zero if lower.order == 1 else lower.generator()
    return cc.epsilon_map(ring, lower, image)


WORKLOADS = {w.name: w for w in (Square, DeepPole, Laws)}


class InputStream:
    """Op inputs for one workload and seed, never repeating an earlier op's."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.rng = random.Random(f"ccsym-bench:{workload.name}:{seed}")
        # bytearray(n) zero-fills, so the filter is resident before any op runs
        self.seen = bytearray(SEEN_BITS // 8)
        self.idx = 0

    def next(self, cc, rings) -> Op:
        while True:
            draw = self.workload.draw(self.rng, self.idx)
            bits = _filter_bits(repr(draw))
            if not all(self.seen[b >> 3] >> (b & 7) & 1 for b in bits):
                break
        for b in bits:
            self.seen[b >> 3] |= 1 << (b & 7)
        spec, depth, group, ring, data = self.workload.build(cc, rings, draw)
        op = Op(self.idx, spec, depth, group, ring, data)
        self.idx += 1
        return op


def _filter_bits(key: str) -> list[int]:
    """SEEN_HASHES bit positions for ``key``, the same in every process."""
    digest = int.from_bytes(hashlib.blake2b(key.encode(), digest_size=16).digest(), "big")
    return [(digest >> (32 * i)) % SEEN_BITS for i in range(SEEN_HASHES)]
