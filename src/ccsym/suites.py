"""Randomized verification suites with reproducible reports.

A suite is its default rings and a case body.  `_cases` is the one loop:
it parses the rings once, and for each case index idx < cases calls the
body on ring idx mod #rings.  The body draws from the suite's one seeded
generator, checks an exact identity and returns (inputs, expected,
actual), and the case passes when expected == actual.  Failures carry
full reproduction data (seed, case index, serialized inputs).  run_suite
rejects a cases, exponent_bound or xprec below 1 before any draw.  Text
reports contain no timing and are byte-identical under a fixed seed;
JSON reports add elapsed_ms.  The cases share the generator, so they run
in index order and each draws after every case before it.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import asdict, dataclass
from math import gcd

from .errors import CCSymError, IdentityViolated
from .forms import AOneForm, dlog2, dlog_element, form_substitute, log_square_check, res2
from .parsing import parse_ring
from .projline import (
    GlobalTwoForm,
    SectionPoint,
    anderson_romo_check,
    realize_residues,
    residue_sum_check,
    weil_check,
)
from .randgen import (
    draw_decomposition,
    draw_split_pair,
    draw_steinberg_unit,
    draw_uniformizer,
    draw_unit,
    draw_sections,
    with_precision_retry,
)
from .rings import Ring, epsilon_map
from .series import LaurentSeries
from .symbols import (
    MHatElement,
    contou_carrere,
    kato_residue,
    recompose,
    witt_decompose,
)


@dataclass
class SuiteConfig:
    suite: str
    rings: tuple = ()
    cases: int = 100
    seed: int = 0
    exponent_bound: int = 6
    xprec: int = 4

    def echo(self) -> dict:
        return {**asdict(self), "rings": list(self.rings)}


@dataclass
class CaseRecord:
    index: int
    inputs: dict
    expected: str
    actual: str
    passed: bool


@dataclass
class Report:
    suite: str
    config: dict
    cases: list
    failures: int
    elapsed_ms: int

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "suite": self.suite,
                "config": self.config,
                "cases": [
                    {
                        "inputs": c.inputs,
                        "expected": c.expected,
                        "actual": c.actual,
                        "pass": c.passed,
                    }
                    for c in self.cases
                ],
                "failures": self.failures,
                "elapsed_ms": self.elapsed_ms,
            },
            indent=2,
        )

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        cfg = ", ".join(f"{k}={v}" for k, v in self.config.items() if k != "suite")
        lines.append(f"config: {cfg}")
        for c in self.cases:
            if not c.passed:
                ins = ", ".join(f"{k}={v}" for k, v in c.inputs.items())
                lines.append(f"FAIL case {c.index}: {ins}")
                lines.append(f"  expected: {c.expected}")
                lines.append(f"  actual:   {c.actual}")
        lines.append(f"cases: {len(self.cases)}, failures: {self.failures}")
        lines.append("PASS" if self.failures == 0 else "FAIL")
        return "\n".join(lines) + "\n"


def _cases(config: SuiteConfig, defaults, case, more=()) -> list[CaseRecord]:
    """The one case loop: case(ring, idx) for every idx < config.cases, then
    the (inputs, expected, actual) of more, numbered on from config.cases."""
    rings = [parse_ring(s) for s in config.rings or defaults]
    drawn = (case(rings[idx % len(rings)], idx) for idx in range(config.cases))
    return [
        CaseRecord(idx, inputs, expected, actual, expected == actual)
        for idx, (inputs, expected, actual) in enumerate(itertools.chain(drawn, more))
    ]


def _level_mismatch(symbol, f: MHatElement, g: MHatElement, top: int):
    """The first level 1..top at which symbol(f, g), truncated, differs from
    the symbol of the truncated f and g; None when every level agrees."""
    ring = f.ring
    value = symbol(f, g)
    for lower in range(1, top + 1):
        # the truncation k[x]/(x^m) -> k[x]/(x^lower), x -> x
        target = ring.at_order(lower)
        drop = epsilon_map(ring, target, target.zero if lower == 1 else target.generator())
        low = symbol(f.map_level(drop), g.map_level(drop))
        if value.map_level(drop) != low:
            return lower
    return None


# -- closed-form identities ------------------------------------------------


def _closed_form(ring: Ring, clause: str, n: int, m: int, a, b):
    """The printed value of the four sparse-pair identities."""
    if clause in ("i", "ii"):
        return ring.one
    d = gcd(n, m)
    base = ring.sub(ring.one, ring.mul(ring.pow(a, m // d), ring.pow(b, n // d)))
    return ring.pow(base, d if clause == "iii" else -d)


def _sparse_pair(ring: Ring, clause: str, n: int, m: int, a, b):
    one = LaurentSeries.one(ring)
    if clause == "i":
        f = one - LaurentSeries.t_power(ring, -n, a)
        g = one - LaurentSeries.t_power(ring, -m, b)
    elif clause == "ii":
        f = one - LaurentSeries.t_power(ring, n, a)
        g = one - LaurentSeries.t_power(ring, m, b)
    elif clause == "iii":
        f = one - LaurentSeries.t_power(ring, n, a)
        g = one - LaurentSeries.t_power(ring, -m, b)
    else:
        f = one - LaurentSeries.t_power(ring, -n, a)
        g = one - LaurentSeries.t_power(ring, m, b)
    return f, g


def suite_lemma34(config: SuiteConfig, rng) -> list[CaseRecord]:
    def case(ring, idx):
        clause = ("i", "ii", "iii", "iv")[idx % 4]
        n = rng.randint(1, config.exponent_bound)
        m = rng.randint(1, config.exponent_bound)
        a = ring.random_nilpotent(rng) if clause in ("i", "iv") else ring.random_element(rng)
        b = ring.random_nilpotent(rng) if clause in ("i", "iii") else ring.random_element(rng)
        want = ring.format_element(_closed_form(ring, clause, n, m, a, b))
        f, g = _sparse_pair(ring, clause, n, m, a, b)
        inputs = {
            "ring": str(ring), "clause": clause, "n": n, "m": m,
            "a": ring.format_element(a), "b": ring.format_element(b),
        }
        if ring.x_level:
            kv = kato_residue(MHatElement(ring, 0, f), MHatElement(ring, 0, g))
            inputs["route"] = "kato"
            return inputs, f"(0, {want})", f"({kv.exponent}, {ring.format_element(kv.unit)})"
        inputs["route"] = "cc"
        return inputs, want, ring.format_element(contou_carrere(f, g))

    return _cases(
        config,
        [
            "F2[e]/(e^2)", "F3[e]/(e^2)", "F5[e]/(e^2)",
            "F2[e]/(e^3)", "F3[e]/(e^3)", "F5[e]/(e^3)",
            "Z/4", "Z/9", "Z/25",
            "F2[x]/(x^2)", "F3[x]/(x^3)", "F5[x]/(x^3)",
        ],
        case,
    )


def suite_lemma35(config: SuiteConfig, rng) -> list[CaseRecord]:
    bound = config.exponent_bound

    def case(ring, idx):
        kind = "i" if idx % 2 == 0 else "ii"
        e1 = rng.randint(-2, 2)
        n = rng.randint(-bound, bound)
        a = ring.random_unit(rng)
        if idx % 6 == 0:
            # the exponent-bookkeeping shape {x z^n, z^m}
            e1, a = 1, ring.one
        f = MHatElement(ring, e1, LaurentSeries.t_power(ring, n, a))
        if kind == "i":
            e2 = rng.randint(-2, 2)
            mm = rng.randint(-bound, bound)
            b = ring.random_unit(rng)
            if idx % 6 == 0:
                e2, b = 0, ring.one
            g = MHatElement(ring, e2, LaurentSeries.t_power(ring, mm, b))
            want_exp = e1 * mm - e2 * n
            want_unit = ring.mul(
                ring.pow(ring.neg(ring.one), (n * mm) & 1),
                ring.mul(ring.pow(a, mm), ring.pow(b, -n)),
            )
        else:
            mm = rng.choice([k for k in range(-bound, bound + 1) if k])
            b = ring.random_nilpotent(rng) if mm < 0 else ring.random_element(rng)
            g = MHatElement(
                ring, 0, LaurentSeries.one(ring) - LaurentSeries.t_power(ring, mm, b)
            )
            want_exp, want_unit = 0, ring.one
        kv = kato_residue(f, g)
        return (
            {"ring": str(ring), "kind": kind, "f": f.format(), "g": g.format()},
            f"({want_exp}, {ring.format_element(want_unit)})",
            f"({kv.exponent}, {ring.format_element(kv.unit)})",
        )

    return _cases(config, [f"F{p}[x]/(x^{config.xprec})" for p in (2, 3, 5)], case)


# -- the residue square ------------------------------------------------------


def _square_case_artinian(ring, rng):
    fd = draw_unit(ring, rng)
    gd = draw_unit(ring, rng)

    def check(prec):
        f, g = fd.series(prec), gd.series(prec)
        lhs = res2(dlog2(f, g))
        rhs = dlog_element(ring, contou_carrere(f, g))
        return f, g, lhs, rhs

    f, g, lhs, rhs = with_precision_retry(check, start=16)
    return {"ring": str(ring), "f": f.format(), "g": g.format()}, rhs.format(), lhs.format()


def _square_case_level(ring, rng):
    fd = draw_unit(ring, rng)
    gd = draw_unit(ring, rng)
    e1, e2 = rng.randint(-2, 2), rng.randint(-2, 2)

    def check(prec):
        f = MHatElement(ring, e1, fd.series(prec))
        g = MHatElement(ring, e2, gd.series(prec))
        return f, g, _level_mismatch(log_square_check, f, g, ring.order - 1)

    want = "square + level compatibility"
    try:
        f, g, lower = with_precision_retry(check, start=16)
    except IdentityViolated as exc:
        inputs = {"ring": str(ring), "f": fd.format(), "g": gd.format(), "e1": e1, "e2": e2}
        return inputs, want, str(exc)
    actual = want if lower is None else f"level {ring.order} -> {lower} truncation mismatch"
    return {"ring": str(ring), "f": f.format(), "g": g.format()}, want, actual


def suite_dlog_square(config: SuiteConfig, rng) -> list[CaseRecord]:
    defaults = (
        [f"F{p}[e]/(e^{m})" for p in (2, 3, 5, 7) for m in (2, 3, 4)]
        + ["Q[e]/(e^2)", "Q[e]/(e^3)"]
        + [f"F3[x]/(x^{n})" for n in (1, 2, 3, 4)]
    )
    for ring in [parse_ring(s) for s in config.rings or defaults]:
        if not ring.has_section:
            raise CCSymError(f"{ring} does not support differential forms")

    def case(ring, idx):
        square = _square_case_level if ring.x_level else _square_case_artinian
        return square(ring, rng)

    return _cases(config, defaults, case, _closed_form_squares(config, rng))


def _closed_form_squares(config: SuiteConfig, rng):
    """(inputs, expected, actual) of the residue square's seven sparse shapes, n,m exhausted."""
    specs = config.rings or [f"F{p}[e]/(e^{m})" for p in (2, 3, 5) for m in (2, 3)]
    rings = [r for r in map(parse_ring, specs) if not r.is_field and r.has_section]
    bound = min(config.exponent_bound, 5)
    for ring in rings:
        M = ring.nilpotency_index
        exhaustive = list(ring.iter_elements()) if ring.characteristic == 2 and M <= 3 else None
        for n in range(1, bound + 1):
            for m in range(1, bound + 1):
                if exhaustive is not None:
                    pairs = [(a, b) for a in exhaustive for b in exhaustive]
                else:
                    pairs = [
                        (ring.random_element(rng), ring.random_element(rng))
                        for _ in range(3)
                    ]
                for a, b in pairs:
                    anil = ring.mul(a, ring.generator())
                    bnil = ring.mul(b, ring.generator())
                    for tag, f, g, want in _square_identities(ring, n, m, a, b, anil, bnil, M):
                        expected, actual = want.format(), res2(dlog2(f, g)).format()
                        inputs = {"ring": str(ring), "identity": tag, "n": n, "m": m,
                                  "a": ring.format_element(a), "b": ring.format_element(b)}
                        yield inputs, expected, actual


def _square_identities(ring, n, m, a, b, anil, bnil, M):
    one = LaurentSeries.one(ring)
    tp = LaurentSeries.t_power
    zero = AOneForm.zero(ring)
    d = gcd(n, m)
    # (i) positive-positive
    yield "i", one - tp(ring, n, a), one - tp(ring, m, b), zero
    # (ii) nilpotent negative-negative
    yield "ii", one - tp(ring, -n, anil), one - tp(ring, -m, bnil), zero
    if ring.is_unit(a):
        # (iii) monomial against 1 - b t^m, m > 0
        yield "iii", tp(ring, n, a), one - tp(ring, m, b), zero
        # (iv) monomial against nilpotent negative
        yield "iv", tp(ring, n, a), one - tp(ring, -m, bnil), zero
        if ring.is_unit(b):
            # (v) monomial-monomial
            want = dlog_element(ring, ring.pow(a, m)) - dlog_element(ring, ring.pow(b, n))
            yield "v", tp(ring, n, a), tp(ring, m, b), want
    # (vi) positive against nilpotent negative
    base = ring.sub(ring.one, ring.mul(ring.pow(a, m // d), ring.pow(bnil, n // d)))
    yield "vi", one - tp(ring, n, a), one - tp(ring, -m, bnil), dlog_element(
        ring, ring.pow(base, d)
    )
    # (vii) deep positive polynomial against shallow nilpotent negative
    poly = LaurentSeries.from_terms(
        ring, {M * n + 1 + i: c for i, c in enumerate((a, b, ring.one))}
    )
    yield "vii", one - poly, one - tp(ring, -n, bnil), zero


# -- bilinearity, Steinberg, invariance --------------------------------------


def suite_bilinearity_steinberg(config: SuiteConfig, rng) -> list[CaseRecord]:
    def case(ring, idx):
        kind = ("bilinear-left", "bilinear-right", "alternating", "steinberg")[idx % 4]
        if kind == "steinberg":
            fd = draw_steinberg_unit(ring, rng)

            def check(prec):
                f = fd.series(prec)
                return f, contou_carrere(f, LaurentSeries.one(ring) - f)

            f, got = with_precision_retry(check, start=24)
            return (
                {"ring": str(ring), "kind": kind, "f": f.format()},
                ring.format_element(ring.one),
                ring.format_element(got),
            )
        fd, gd, hd = (draw_unit(ring, rng) for _ in range(3))

        def check(prec):
            f, g, h = fd.series(prec), gd.series(prec), hd.series(prec)
            if kind == "bilinear-left":
                return f, g, h, contou_carrere(f * g, h), ring.mul(
                    contou_carrere(f, h), contou_carrere(g, h)
                )
            if kind == "bilinear-right":
                return f, g, h, contou_carrere(f, g * h), ring.mul(
                    contou_carrere(f, g), contou_carrere(f, h)
                )
            return f, g, h, ring.mul(
                contou_carrere(f, g), contou_carrere(g, f)
            ), ring.one

        f, g, h, got, want = with_precision_retry(check, start=24)
        return (
            {"ring": str(ring), "kind": kind, "f": f.format(), "g": g.format(),
             "h": h.format()},
            ring.format_element(want),
            ring.format_element(got),
        )

    return _cases(
        config,
        ["F3[e]/(e^2)", "F5[e]/(e^3)", "F2[e]/(e^3)", "Z/9", "Z/25", "Q[e]/(e^2)"],
        case,
    )


def suite_uniformizer_invariance(config: SuiteConfig, rng) -> list[CaseRecord]:
    def case(ring, idx):
        fd, gd = draw_unit(ring, rng), draw_unit(ring, rng)
        sigma = draw_uniformizer(ring, rng, prec=64)
        kind = ("symbol", "residue", "kato")[idx % 3]
        if kind == "kato" and not ring.x_level:
            kind = "symbol"

        def check(prec):
            f, g = fd.series(prec), gd.series(prec)
            if kind == "symbol":
                return (
                    ring.format_element(contou_carrere(f, g)),
                    ring.format_element(
                        contou_carrere(f.substitute(sigma), g.substitute(sigma))
                    ),
                )
            if kind == "residue":
                om = dlog2(f, g)
                return (
                    res2(om).format(),
                    res2(form_substitute(sigma, om)).format(),
                )
            kv1 = kato_residue(MHatElement(ring, 1, f), MHatElement(ring, 0, g))
            kv2 = kato_residue(
                MHatElement(ring, 1, f.substitute(sigma)),
                MHatElement(ring, 0, g.substitute(sigma)),
            )
            return kv1.format(), kv2.format()

        want, got = with_precision_retry(check, start=20)
        return (
            {"ring": str(ring), "kind": kind, "f": fd.format(), "g": gd.format(),
             "sigma": sigma.truncate(6).format()},
            want,
            got,
        )

    return _cases(
        config,
        ["F3[e]/(e^2)", "F5[e]/(e^3)", "F2[e]/(e^3)", "Q[e]/(e^2)", "F3[x]/(x^3)"],
        case,
    )


# -- reciprocity on the projective line --------------------------------------


def suite_reciprocity_ar(config: SuiteConfig, rng) -> list[CaseRecord]:
    def case(ring, idx):
        f, g = draw_split_pair(ring, rng)
        try:
            actual = ring.format_element(anderson_romo_check(f, g).product)
        except CCSymError as exc:
            actual = f"error: {exc}"
        inputs = {"ring": str(ring), "f": f.format(), "g": g.format()}
        return inputs, ring.format_element(ring.one), actual

    return _cases(
        config,
        ["F3[e]/(e^2)", "F5[e]/(e^2)", "F3[e]/(e^3)", "F7[e]/(e^2)",
         "F2[e]/(e^2)", "Z/4", "Z/9", "Z/25", "Q[e]/(e^2)"],
        case,
    )


def suite_weil(config: SuiteConfig, rng) -> list[CaseRecord]:
    def case(ring, idx):
        f, g = draw_split_pair(ring, rng)
        inputs = {"ring": str(ring), "f": f.format(), "g": g.format()}
        return inputs, ring.format_element(ring.one), ring.format_element(weil_check(f, g).product)

    return _cases(config, ["F3", "F5", "F7", "Q"], case)


def suite_residue_sum(config: SuiteConfig, rng) -> list[CaseRecord]:
    def case(ring, idx):
        sections = draw_sections(ring, rng, rng.randint(1, 4))
        values = [AOneForm(ring, ring.random_element(rng)) for _ in sections]
        if idx % 2 == 0:
            omega = GlobalTwoForm.simple_poles(ring, dict(zip(sections, values)))
            inputs = {"ring": str(ring), "f": omega.format()}
            return inputs, "0", residue_sum_check(omega).product.format()
        total = AOneForm.zero(ring)
        for v in values:
            total = total + v
        assignment = {SectionPoint.affine(s): v for s, v in zip(sections, values)}
        assignment[SectionPoint.infinity()] = -total
        omega = realize_residues(ring, assignment)
        ok = all(omega.residue_at_section(pt) == eta for pt, eta in assignment.items())
        inputs = {"ring": str(ring), "f": omega.format()}
        return inputs, "roundtrip", "roundtrip" if ok else "mismatch"

    return _cases(config, ["F3[e]/(e^2)", "F2[e]/(e^2)", "F5[e]/(e^3)", "Q[e]/(e^2)"], case)


def suite_decompose_roundtrip(config: SuiteConfig, rng) -> list[CaseRecord]:
    def case(ring, idx):
        if idx % 2 == 0:
            d = draw_decomposition(ring, rng)
            f = recompose(d, 6 + 6 * ring.nilpotency_index)
            d2 = witt_decompose(f)
            ok = (d2.w, d2.a0, d2.pos, d2.neg) == (d.w, d.a0, d.pos, d.neg)
            return (
                {"ring": str(ring), "f": f.truncate(d.w + 6).format()},
                "coordinates recovered",
                "coordinates recovered" if ok else repr(d2),
            )
        fd, gd = draw_unit(ring, rng), draw_unit(ring, rng)
        f, g = fd.series(12), gd.series(12)
        return (
            {"ring": str(ring), "f": f.format(), "g": g.format()},
            str(f.winding_number() + g.winding_number()),
            str((f * g).winding_number()),
        )

    return _cases(
        config,
        ["F3[e]/(e^2)", "F3[e]/(e^3)", "F5[e]/(e^2)", "F2[e]/(e^3)", "Z/9", "Q[e]/(e^3)"],
        case,
    )


def suite_precision_coherence(config: SuiteConfig, rng) -> list[CaseRecord]:
    def case(ring, idx):
        fd, gd = draw_unit(ring, rng), draw_unit(ring, rng)
        e1, e2 = rng.randint(-2, 2), rng.randint(-2, 2)

        def check(prec):
            f = MHatElement(ring, e1, fd.series(prec))
            g = MHatElement(ring, e2, gd.series(prec))
            return _level_mismatch(kato_residue, f, g, ring.order)

        lower = with_precision_retry(check, start=20)
        return (
            {"ring": str(ring), "f": fd.format(), "g": gd.format(), "e1": e1, "e2": e2},
            "coherent",
            "coherent" if lower is None else f"mismatch at level {lower}",
        )

    return _cases(config, [f"F{p}[x]/(x^{config.xprec})" for p in (2, 3, 5)], case)


SUITES = {
    "lemma34": suite_lemma34,
    "lemma35": suite_lemma35,
    "dlog-square": suite_dlog_square,
    "bilinearity-steinberg": suite_bilinearity_steinberg,
    "uniformizer-invariance": suite_uniformizer_invariance,
    "reciprocity-ar": suite_reciprocity_ar,
    "weil": suite_weil,
    "residue-sum": suite_residue_sum,
    "decompose-roundtrip": suite_decompose_roundtrip,
    "precision-coherence": suite_precision_coherence,
}


def run_suite(config: SuiteConfig) -> Report:
    if config.suite not in SUITES:
        raise CCSymError(
            f"unknown suite {config.suite!r}; available: {', '.join(sorted(SUITES))}"
        )
    for field in ("cases", "exponent_bound", "xprec"):
        if getattr(config, field) < 1:
            raise CCSymError(f"{field} must be at least 1, got {getattr(config, field)}")
    rng = random.Random(config.seed)
    started = time.monotonic()
    cases = SUITES[config.suite](config, rng)
    elapsed = int((time.monotonic() - started) * 1000)
    failures = sum(1 for c in cases if not c.passed)
    return Report(config.suite, config.echo(), cases, failures, elapsed)
