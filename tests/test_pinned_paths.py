"""Values of the paths that read a unit's negative tail and expand at a point.

dlog, dlog2 and witt_decompose of units with nilpotent tails down to
t^-8, and GlobalTwoForm.local_expansion at every pole and at infinity.
The strings were recorded when the tail was still multiplied back and
peeled again per call and each chart expanded (x - s)^n by hand; the
split's canonical coordinates and the one chart expansion reproduce them.
"""

import pytest

from ccsym.forms import AOneForm, dlog, dlog2
from ccsym.parsing import parse_ring, parse_series
from ccsym.projline import GlobalTwoForm
from ccsym.symbols import witt_decompose

UNITS = {
    "F2[e]/(e^4)": (
        "e*t^-8 + e^2*t^-3 + 1 + t^3 + O(t^28)",
        "(1+e)*t^-1 + e*t^-7 + e^3*t^-4",
        "1 + e*t^-8 + e*t^-1",
    ),
    "F3[e]/(e^3)": (
        "e*t^-7 + 2*e^2*t^-6 + e*t^-1 + 2 + t^3 + O(t^20)",
        "e*t^-4 + (1+e)*t^-1 + 2*t + O(t^16)",
        "1 - e*t^-8 + e^2*t^-3",
    ),
    "Q[e]/(e^3)": (
        "e/2*t^-8 + e^2*t^-2 + 1 + 3*t + O(t^17)",
        "-e*t^-3 + 2*e*t^-1 + 1/3 + t^2 + O(t^12)",
        "1 + e*t^-6 - e^2/2*t^-5",
    ),
}
DLOG = {
    ("F2[e]/(e^4)", "e*t^-8 + e^2*t^-3 + 1 + t^3 + O(t^28)"):
        "(e^3*t^-22+e^2*t^-14+e^3*t^-12+e^2*t^-11+e^3*t^-10+(e+e^3)*t^-6+e^2*t^-4+e^2*t^-2+e+e^3+e^2*t+(1+e^2+e^3)*t^2+O(t^3))*dt + (e^3*t^-32+e^2*t^-24+e^2*t^-21+e^3*t^-20+e*t^-16+e^2*t^-12+e^2*t^-11+e*t^-10+e^2*t^-9+(1+e^3)*t^-8+(1+e^2)*t^-5+e*t^-4+t^-2+e^2+(1+e^2)*t+e*t^2+e^2*t^3+O(t^4))*de",
    ("F2[e]/(e^4)", "(1+e)*t^-1 + e*t^-7 + e^3*t^-4"):
        "(e^3*t^-4+t^-1)*dt + (e^3*t^-24+e^2*t^-18+(e+e^2)*t^-12+(1+e^2)*t^-6+e^2*t^-3+1+e+e^2+e^3)*de",
    ("F2[e]/(e^4)", "1 + e*t^-8 + e*t^-1"):
        "(e^3*t^-18+e^2*t^-10+e^3*t^-4+e^2*t^-3+e*t^-2)*dt + (e^3*t^-32+e^2*t^-24+e^2*t^-17+e*t^-16+e^2*t^-10+t^-8+e^3*t^-4+e^2*t^-3+e*t^-2+t^-1)*de",
    ("F3[e]/(e^3)", "e*t^-7 + 2*e^2*t^-6 + e*t^-1 + 2 + t^3 + O(t^20)"):
        "(e^2*t^-15+2*e^2*t^-12+2*e^2*t^-9+e*t^-8+2*e^2*t^-6+e*t^-5+2*e*t^-2+e^2+2*e*t+2*e^2*t^3+2*e*t^4+O(t^5))*dt + (2*e^2*t^-21+2*e*t^-14+2*e^2*t^-12+e*t^-11+e*t^-8+2*t^-7+2*e*t^-6+e*t^-5+2*t^-4+(2*e+e^2)*t^-3+t^-1+2*e+2*e*t+t^2+2*e*t^3+e*t^4+t^5+O(t^6))*de",
    ("F3[e]/(e^3)", "e*t^-4 + (1+e)*t^-1 + 2*t + O(t^16)"):
        "(e^2*t^-5+(2*e+2*e^2)*t^-2+2*t^-1+e+(1+2*e+2*e^2)*t+(1+e)*t^3+(2*e+2*e^2)*t^4+t^5+e*t^6+(1+2*e+2*e^2)*t^7+(1+e)*t^9+O(t^10))*dt + (e^2*t^-9+2*e*t^-6+e*t^-4+(1+e+e^2)*t^-3+(1+2*e)*t^-1+1+e+e^2+t+(1+2*e)*t^2+(1+e+e^2)*t^3+t^4+(1+2*e)*t^5+(1+e+e^2)*t^6+t^7+(1+2*e)*t^8+(1+e+e^2)*t^9+t^10+O(t^11))*de",
    ("F3[e]/(e^3)", "1 - e*t^-8 + e^2*t^-3"):
        "(2*e^2*t^-17+2*e*t^-9)*dt + (2*e^2*t^-24+2*e*t^-16+2*t^-8+2*e*t^-3)*de",
    ("Q[e]/(e^3)", "e/2*t^-8 + e^2*t^-2 + 1 + 3*t + O(t^17)"):
        "(2*e^2*t^-17-45/4*e^2*t^-16+189/4*e^2*t^-15-351/2*e^2*t^-14+1215/2*e^2*t^-13-8019/4*e^2*t^-12+25515/4*e^2*t^-11-19683*e^2*t^-10+(-4*e+59049*e^2)*t^-9+(21/2*e-688905/4*e^2)*t^-8+(-27*e+1948617/4*e^2)*t^-7+(135/2*e-2657205/2*e^2)*t^-6+(-162*e+6908733/2*e^2)*t^-5+(729/2*e-33480783/4*e^2)*t^-4+(-729*e+71744527/4*e^2)*t^-3+(2187/2*e-28697811*e^2)*t^-2+O(t^0))*dt + (-1/4*e*t^-16+3/2*e*t^-15-27/4*e*t^-14+27*e*t^-13-405/4*e*t^-12+729/2*e*t^-11-5103/4*e*t^-10+4374*e*t^-9+(1/2-59049/4*e)*t^-8+(-3/2+98415/2*e)*t^-7+(9/2-649539/4*e)*t^-6+(-27/2+531441*e)*t^-5+(81/2-6908733/4*e)*t^-4+(-243/2+11160261/2*e)*t^-3+(729/2-71744527/4*e)*t^-2+(-2187/2+57395622*e)*t^-1+6561/2-731794185/4*e+O(t^1))*de",
    ("Q[e]/(e^3)", "-e*t^-3 + 2*e*t^-1 + 1/3 + t^2 + O(t^12)"):
        "(27*e^2*t^-7-180*e^2*t^-5+9*e*t^-4+495*e^2*t^-3-15*e*t^-2-45*e+(6-8505*e^2)*t+405*e*t^2+(-18+63180*e^2)*t^3-2025*e*t^4+O(t^5))*dt + (-9*e*t^-6+90*e*t^-4-3*t^-3-495*e*t^-2+15*t^-1+2160*e-45*t-8505*e*t^2+135*t^3+31590*e*t^4-405*t^5+O(t^6))*de",
    ("Q[e]/(e^3)", "1 + e*t^-6 - e^2/2*t^-5"):
        "(6*e^2*t^-13-6*e*t^-7+5/2*e^2*t^-6)*dt + (-1*e*t^-12+t^-6-1*e*t^-5)*de",
    # no negative tail and a leading constant with an e-part: its dlog rides
    # in h^-1*h_e (recorded when the split divided it out as dlog c)
    ("F3[e]/(e^3)", "(2+e)*t^3 + t^5"):
        "((1+e+e^2)*t+(1+2*e)*t^3+t^5+(1+e+e^2)*t^7+(1+2*e)*t^9+t^11+(1+e+e^2)*t^13+(1+2*e)*t^15+t^17+(1+e+e^2)*t^19+(1+2*e)*t^21+t^23+O(t^25))*dt + (2+2*e+2*e^2+(2+e)*t^2+2*t^4+(2+2*e+2*e^2)*t^6+(2+e)*t^8+2*t^10+(2+2*e+2*e^2)*t^12+(2+e)*t^14+2*t^16+(2+2*e+2*e^2)*t^18+(2+e)*t^20+2*t^22+(2+2*e+2*e^2)*t^24+O(t^26))*de",
}
WITT = {
    ("F2[e]/(e^4)", "e*t^-8 + e^2*t^-3 + 1 + t^3 + O(t^28)"):
        "UnitDecomposition(w=0, a0=1+e^2+e^3, pos={1: 'e+e^3', 2: 'e^2', 3: '1+e^2'}, neg={-1: 'e^2', -2: 'e', -3: 'e^2', -5: 'e+e^3', -6: 'e^3', -8: 'e', -9: 'e^3', -10: 'e^2', -11: 'e^3', -12: 'e^3', -13: 'e^2', -15: 'e^3', -21: 'e^3'}, prec=4)",
    ("F2[e]/(e^4)", "(1+e)*t^-1 + e*t^-7 + e^3*t^-4"):
        "UnitDecomposition(w=-1, a0=1+e, pos={}, neg={-3: 'e^3', -6: 'e+e^2+e^3'}, prec=inf)",
    ("F2[e]/(e^4)", "1 + e*t^-8 + e*t^-1"):
        "UnitDecomposition(w=0, a0=1, pos={}, neg={-1: 'e', -8: 'e', -9: 'e^2', -10: 'e^3', -17: 'e^3'}, prec=inf)",
    ("F3[e]/(e^3)", "e*t^-7 + 2*e^2*t^-6 + e*t^-1 + 2 + t^3 + O(t^20)"):
        "UnitDecomposition(w=0, a0=2+2*e^2, pos={1: '2*e^2', 2: '2*e', 3: '1+2*e^2', 4: '2*e^2', 5: '2*e'}, neg={-1: '2*e', -2: 'e^2', -3: '2*e^2', -4: 'e', -5: 'e^2', -6: '2*e^2', -7: 'e', -8: '2*e^2', -11: 'e^2'}, prec=6)",
    ("F3[e]/(e^3)", "e*t^-4 + (1+e)*t^-1 + 2*t + O(t^16)"):
        "UnitDecomposition(w=-1, a0=1+e+e^2, pos={1: '2*e', 2: '1+2*e', 3: '2*e+e^2', 4: 'e^2', 5: '2*e+2*e^2', 6: 'e^2', 7: '2*e', 8: '2*e^2', 9: '2*e+e^2', 10: '2*e^2'}, neg={-1: '2*e+2*e^2', -2: 'e^2', -3: '2*e+e^2', -4: 'e^2'}, prec=11)",
    ("F3[e]/(e^3)", "1 - e*t^-8 + e^2*t^-3"):
        "UnitDecomposition(w=0, a0=1, pos={}, neg={-3: '2*e^2', -8: 'e'}, prec=inf)",
    ("Q[e]/(e^3)", "e/2*t^-8 + e^2*t^-2 + 1 + 3*t + O(t^17)"):
        "UnitDecomposition(w=0, a0=1+6561/2*e-86093433*e^2, pos={}, neg={-1: '2187/2*e-28697811*e^2', -2: '-729/2*e+33480779/4*e^2', -3: '243/2*e-11160261/4*e^2', -4: '-81/2*e+1594323/2*e^2', -5: '27/2*e-531441/2*e^2', -6: '-9/2*e+295245/4*e^2', -7: '3/2*e-98415/4*e^2', -8: '-1/2*e+6561*e^2', -9: '-2187*e^2', -10: '2187/4*e^2', -11: '-729/4*e^2', -12: '81/2*e^2', -13: '-27/2*e^2', -14: '9/4*e^2', -15: '-3/4*e^2'}, prec=1)",
    ("Q[e]/(e^3)", "-e*t^-3 + 2*e*t^-1 + 1/3 + t^2 + O(t^12)"):
        "UnitDecomposition(w=0, a0=1/3+360*e^2, pos={1: '45*e', 2: '-3+3240*e^2', 3: '-135*e', 4: '-6075*e^2', 5: '405*e'}, neg={-1: '-15*e', -2: '135*e^2', -3: '3*e', -4: '-45*e^2'}, prec=6)",
    ("Q[e]/(e^3)", "1 + e*t^-6 - e^2/2*t^-5"):
        "UnitDecomposition(w=0, a0=1, pos={}, neg={-5: '1/2*e^2', -6: '-1*e'}, prec=inf)",
    ("F3[e]/(e^3)", "(2+e)*t^3 + t^5"):
        "UnitDecomposition(w=3, a0=2+e, pos={2: '1+e+e^2'}, neg={}, prec=24)",
}
DLOG2 = {
    ("F2[e]/(e^4)", 0, 1):
        "(e^3*t^-33+e^3*t^-28+e^3*t^-26+e^2*t^-25+e^3*t^-24+e^3*t^-23+e^2*t^-22+O(t^-21))*de^dt",
    ("F2[e]/(e^4)", 1, 2):
        "(e^3*t^-33+e^2*t^-25+e^3*t^-24+e^3*t^-22+e^3*t^-20+(e^2+e^3)*t^-18+e*t^-17+e^2*t^-16+e^3*t^-15+(e^2+e^3)*t^-14+e^3*t^-12+e^2*t^-11+e^2*t^-10+(1+e^2)*t^-9+(e+e^3)*t^-8+e^3*t^-5+(e^2+e^3)*t^-4+(e+e^2+e^3)*t^-3+(1+e+e^2+e^3)*t^-2)*de^dt",
    ("F2[e]/(e^4)", 2, 0):
        "(O(t^-29))*de^dt",
    ("F3[e]/(e^3)", 0, 1):
        "(e^2*t^-22+2*e^2*t^-20+e^2*t^-18+2*e^2*t^-16+e*t^-15+e^2*t^-14+(2*e+e^2)*t^-13+(2*e+e^2)*t^-12+O(t^-11))*de^dt",
    ("F3[e]/(e^3)", 1, 2):
        "(2*e^2*t^-25+e^2*t^-23+e^2*t^-21+2*e^2*t^-20+e^2*t^-19+e^2*t^-18+2*e*t^-17+e*t^-15+O(t^-14))*de^dt",
    ("F3[e]/(e^3)", 2, 0):
        "(e^2*t^-24+e^2*t^-23+e^2*t^-21+2*e^2*t^-20+O(t^-19))*de^dt",
    ("Q[e]/(e^3)", 0, 1):
        "(-3/2*e*t^-15+9*e*t^-14-36*e*t^-13+255/2*e*t^-12+O(t^-11))*de^dt",
    ("Q[e]/(e^3)", 1, 2):
        "(6*e*t^-11+9*e*t^-10-18*e*t^-9-75*e*t^-8+O(t^-7))*de^dt",
    ("Q[e]/(e^3)", 2, 0):
        "(-1*e*t^-15+3/2*e*t^-14+O(t^-12))*de^dt",
}
TWO_FORM = {
    ("F5[e]/(e^2)", "1+e"):
        "(2*t^-2+t^-1+t+3*t^2+2*t^3+t^4+3*t^5+4*t^6+2*t^7+O(t^8))*de^dt",
    ("F5[e]/(e^2)", "3"):
        "(3*t^-1+2+2*t+2*t^2+3*t^4+2*t^5+t^6+t^7+O(t^8))*de^dt",
    ("F5[e]/(e^2)", "inf"):
        "(t^-4+t^-1+3+3*t+2*t^2+3*t^3+O(t^6))*de^dt",
    ("Q[e]/(e^2)", "1+e"):
        "(2*t^-2+t^-1+5/2+29/4*t+29/8*t^2-3/16*t^3-3/32*t^4-3/64*t^5-3/128*t^6-3/256*t^7+O(t^8))*de^dt",
    ("Q[e]/(e^2)", "3"):
        "(3*t^-1+37+93/4*t+9/2*t^2-5/16*t^3+3/16*t^4-7/64*t^5+1/16*t^6-9/256*t^7+O(t^8))*de^dt",
    ("Q[e]/(e^2)", "inf"):
        "(-4*t^-4-4*t^-1-12-32*t-88*t^2-252*t^3-740*t^4-2200*t^5+O(t^6))*de^dt",
}


def _units(spec):
    ring = parse_ring(spec)
    return [parse_series(ring, text) for text in UNITS[spec]]


@pytest.mark.parametrize("spec, text", sorted(DLOG))
def test_dlog_pinned(spec, text):
    assert dlog(parse_series(parse_ring(spec), text)).format() == DLOG[spec, text]


@pytest.mark.parametrize("spec, text", sorted(WITT))
def test_witt_decompose_pinned(spec, text):
    assert repr(witt_decompose(parse_series(parse_ring(spec), text))) == WITT[spec, text]


@pytest.mark.parametrize("spec, i, j", sorted(DLOG2))
def test_dlog2_pinned(spec, i, j):
    units = _units(spec)
    assert dlog2(units[i], units[j]).format() == DLOG2[spec, i, j]


@pytest.mark.parametrize("spec", ["F5[e]/(e^2)", "Q[e]/(e^2)"])
def test_two_form_expansions_pinned(spec):
    # a double and a simple pole at residue-disjoint sections, and 4*x^2 dx
    ring = parse_ring(spec)

    def form(n):
        return AOneForm(ring, ring.from_int(n))

    omega = GlobalTwoForm(
        ring,
        {ring.add(ring.one, ring.generator()): {1: form(1), 2: form(2)}, ring.from_int(3): {1: form(3)}},
        tail=(form(0), form(0), form(4)),
    )
    got = {pt.format(ring): omega.local_expansion(pt, 8).format() for pt in omega.pole_points()}
    assert got == {pt: value for (s, pt), value in TWO_FORM.items() if s == spec}
