"""Command-line front end.

Single computations (symbol cc|tame|kato, decompose, residue, dlog2),
one-shot verifications (verify weil|reciprocity-ar|residue-sum|dlog-square)
and the randomized suites (suite <name>).  Exit code 0 means every check
passed; parse and computation errors exit 2 with a message on stderr.
"""

from __future__ import annotations

import argparse
import sys

from .errors import CCSymError, IdentityViolated
from .forms import AOneForm, TwoForm, dlog2, res1, res2, res2_dlog2
from .parsing import (
    parse_element,
    parse_form,
    parse_global_two_form,
    parse_mhat,
    parse_rational_function,
    parse_ring,
    parse_series,
)
from .projline import (
    SectionPoint,
    anderson_romo_check,
    residue_sum_check,
    tame_symbol_at_point,
    weil_check,
)
from .suites import SUITES, SuiteConfig, run_suite
from .symbols import contou_carrere, kato_residue, witt_decompose

#: the suites whose default rings --xprec sizes; it does nothing elsewhere
XPREC_SUITES = ("lemma35", "precision-coherence")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccsym",
        description="Exact residue symbols over local Artinian coefficient rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, g=True):
        p.add_argument("--ring", required=True, help='e.g. "F3[e]/(e^2)", "Q", "Z/25"')
        p.add_argument("--f", required=True)
        if g:
            p.add_argument("--g", required=True)

    symbol = sub.add_parser("symbol", help="compute a single symbol")
    symsub = symbol.add_subparsers(dest="kind", required=True)
    common(symsub.add_parser("cc", help="pairing of two unit series"))
    tame = symsub.add_parser("tame", help="tame symbol of rational functions at a point")
    common(tame)
    tame.add_argument("--at", required=True, help='section value or "inf"')
    common(symsub.add_parser("kato", help="residue symbol of x^e*(z-series) elements"))

    dec = sub.add_parser("decompose", help="winding number and unit coordinates")
    common(dec, g=False)

    res = sub.add_parser("residue", help="residue of a one- or two-form")
    common(res, g=False)

    dl2 = sub.add_parser("dlog2", help="dlog(f)^dlog(g) and its residue")
    common(dl2)

    ver = sub.add_parser("verify", help="check one instance of a law")
    versub = ver.add_subparsers(dest="law", required=True)
    common(versub.add_parser("weil"))
    common(versub.add_parser("reciprocity-ar"))
    rsum = versub.add_parser("residue-sum")
    rsum.add_argument("--ring", required=True)
    rsum.add_argument("--f", required=True, help="global two-form text")
    common(versub.add_parser("dlog-square"))

    suite = sub.add_parser("suite", help="run a randomized verification suite")
    suite.add_argument("name", choices=sorted(SUITES))
    suite.add_argument("--ring", action="append", default=[], help="repeatable ring spec")
    suite.add_argument("--cases", type=int, default=100)
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument(
        "--xprec", type=int, help="level of the default rings of " + " and ".join(XPREC_SUITES)
    )
    suite.add_argument("--exponent-bound", type=int, default=6)
    suite.add_argument("--format", choices=("text", "json"), default="text")
    suite.add_argument("--out", default="", help="write the report to a file")
    return parser


def _series_pair(args):
    ring = parse_ring(args.ring)
    return ring, parse_series(ring, args.f), parse_series(ring, args.g)


def _kato_ring(args):
    ring = parse_ring(args.ring)
    if not ring.x_level:
        raise CCSymError(f"{ring} is not a level ring k[x]/(x^m)")
    return ring


def _cmd_symbol(args, out) -> int:
    if args.kind == "cc":
        ring, f, g = _series_pair(args)
        out(ring.format_element(contou_carrere(f, g)))
        return 0
    if args.kind == "tame":
        ring = parse_ring(args.ring)
        f = parse_rational_function(ring, args.f)
        g = parse_rational_function(ring, args.g)
        at = args.at.strip()
        pt = SectionPoint.infinity() if at == "inf" else SectionPoint.affine(parse_element(ring, at))
        out(ring.format_element(tame_symbol_at_point(f, g, pt)))
        return 0
    ring = _kato_ring(args)
    f = parse_mhat(ring, args.f)
    g = parse_mhat(ring, args.g)
    out(kato_residue(f, g).format())
    return 0


def _cmd_decompose(args, out) -> int:
    ring = parse_ring(args.ring)
    d = witt_decompose(parse_series(ring, args.f))
    fmt = ring.format_element
    out(f"winding: {d.w}")
    out(f"leading unit: {fmt(d.a0)}")
    out(f"positive coordinates: {{{', '.join(f'{i}: {fmt(a)}' for i, a in sorted(d.pos.items()))}}}")
    out(f"negative coordinates: {{{', '.join(f'-{i}: {fmt(a)}' for i, a in sorted(d.neg.items()))}}}")
    out(f"coordinate precision: {d.prec}")
    return 0


def _cmd_residue(args, out) -> int:
    ring = parse_ring(args.ring)
    form = parse_form(ring, args.f)
    if isinstance(form, TwoForm):
        out(res2(form).format())
    else:
        out(ring.format_element(res1(form)))
    return 0


def _cmd_dlog2(args, out) -> int:
    ring, f, g = _series_pair(args)
    omega = dlog2(f, g)
    out(omega.format())
    out(f"res2: {res2(omega).format()}")
    return 0


def _cmd_verify(args, out) -> int:
    ring = parse_ring(args.ring)
    if args.law == "weil":
        f = parse_rational_function(ring, args.f)
        g = parse_rational_function(ring, args.g)
        r = weil_check(f, g)
    elif args.law == "reciprocity-ar":
        f = parse_rational_function(ring, args.f)
        g = parse_rational_function(ring, args.g)
        r = anderson_romo_check(f, g)
    elif args.law == "residue-sum":
        omega = parse_global_two_form(ring, args.f)
        r = residue_sum_check(omega)
    else:
        try:
            value = res2_dlog2(parse_series(ring, args.f), parse_series(ring, args.g))
        except IdentityViolated as exc:
            out(f"res2(dlog2(f,g)) = {exc.lhs.format()}")
            out(f"dlog<f,g> = {exc.rhs.format()}")
            out("FAIL")
            return 1
        out(f"res2(dlog2(f,g)) = {value.format()}")
        out("PASS")
        return 0
    # residue-sum values are AOneForms, the symbols' are ring elements
    show = AOneForm.format if args.law == "residue-sum" else ring.format_element
    for pt, value in r.per_point:
        out(f"  at {pt.format(ring)}: {show(value)}")
    out(f"product/sum: {show(r.product)}")
    out("PASS" if r.passed else "FAIL")
    return 0 if r.passed else 1


def _cmd_suite(args, out) -> int:
    if args.xprec is not None and (args.name not in XPREC_SUITES or args.ring):
        raise CCSymError(
            "--xprec sizes only the default rings of " + " and ".join(XPREC_SUITES)
            + "; it does nothing with --ring or for another suite"
        )
    config = SuiteConfig(
        suite=args.name,
        rings=tuple(args.ring),
        cases=args.cases,
        seed=args.seed,
        exponent_bound=args.exponent_bound,
        xprec=SuiteConfig.xprec if args.xprec is None else args.xprec,
    )
    report = run_suite(config)
    text = report.to_json() if args.format == "json" else report.to_text()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        out(text.rstrip("\n"))
    return 0 if report.passed else 1


def run_command(argv, stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout

    def out(line: str):
        print(line, file=stdout)

    args = _build_parser().parse_args(argv)
    handlers = {
        "symbol": _cmd_symbol,
        "decompose": _cmd_decompose,
        "residue": _cmd_residue,
        "dlog2": _cmd_dlog2,
        "verify": _cmd_verify,
        "suite": _cmd_suite,
    }
    try:
        return handlers[args.command](args, out)
    except CCSymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
