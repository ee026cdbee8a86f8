"""The seeded suite reports, pinned draw for draw.

Each digest is the SHA-256 of a suite's JSON report at seed 1, with
elapsed_ms removed.  A change to the order or number of draws on the
suite's generator, to a case body or to the report layout changes the
digest; a change that means to do so updates it and says why.
"""

import hashlib
import json
import random

import pytest

import ccsym.suites
from ccsym.errors import CCSymError, IdentityViolated
from ccsym.parsing import parse_mhat, parse_ring
from ccsym.randgen import draw_unit
from ccsym.suites import SUITES, SuiteConfig, _level_mismatch, run_suite
from ccsym.symbols import kato_residue

DIGESTS = {
    "lemma34": "bd41a8e270bbb18e77d01c0a4988861e1bde61fd36152676bf98cfbd5cbb6c2e",
    "lemma35": "f5f3bed2e8486fdee491272afe2ba70659f29d990e03b1a128a68fa544791b76",
    "dlog-square": "ebfdd5104a5e903fa0ea73da51263864e8f77e8bca03f009e5c1636d360c673b",
    "bilinearity-steinberg": "056338f779f8e1163a4b8b44e6ac7af8020a866053ced20b2b2c586fb0cc1617",
    "uniformizer-invariance": "676b220078463f6296360d8d38bbf671a9e8e80e175e33ef1798c39a5f8055bb",
    "reciprocity-ar": "8ab370254326c6b8975e710bb00674c9b11f889e84e2e2c89a24a233507c7312",
    "weil": "e7f11aa8804e038efa1941ed308c0ff0f5ac1498292254c00d631476fb275b54",
    "residue-sum": "eecf5a4c6860e6d28548da69536a9034f949d4d2109b0502b300bed4edc89d96",
    "decompose-roundtrip": "455d4395ba4b236658b0ab63f7b1274455961418bb68c44f3a1cee868d69174d",
    "precision-coherence": "8707efbfa41d5c8db3b018a5f924ec7702e6f0a35c9843d527471962137333ca",
}


def test_every_suite_is_pinned():
    assert set(DIGESTS) == set(SUITES)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_report_digest(name):
    # exponent_bound=2 keeps dlog-square's closed forms to about a second
    report = run_suite(SuiteConfig(suite=name, cases=12, seed=1, exponent_bound=2))
    assert report.passed
    data = json.loads(report.to_json())
    del data["elapsed_ms"]
    digest = hashlib.sha256(json.dumps(data, indent=2).encode()).hexdigest()
    assert digest == DIGESTS[name]


def test_level_mismatch_names_the_first_bad_level():
    ring = parse_ring("F5[x]/(x^3)")
    f, g = parse_mhat(ring, "x * (z + x*z^2)"), parse_mhat(ring, "(z^2 - x)")
    assert _level_mismatch(kato_residue, f, g, 3) is None

    def swapped_at(level):
        # {g, f} = {f, g}^-1 differs from {f, g} at every level here
        return lambda a, b: kato_residue(b, a) if a.ring.order == level else kato_residue(a, b)

    assert _level_mismatch(swapped_at(2), f, g, 3) == 2
    assert _level_mismatch(swapped_at(1), f, g, 3) == 1
    assert _level_mismatch(swapped_at(3), f, g, 2) == 1


@pytest.mark.parametrize("field", ["cases", "exponent_bound", "xprec"])
def test_parameters_below_one_are_rejected(field):
    for value in (0, -5):
        with pytest.raises(CCSymError, match=field):
            run_suite(SuiteConfig(suite="weil", **{field: value}))


def test_level_square_violation_keeps_the_exponents(monkeypatch):
    def violated(f, g):
        raise IdentityViolated("forced violation", None, None)

    monkeypatch.setattr(ccsym.suites, "log_square_check", violated)
    spec = "F3[x]/(x^2)"
    report = run_suite(
        SuiteConfig(suite="dlog-square", rings=(spec,), cases=1, seed=1, exponent_bound=1)
    )
    case = report.cases[0]
    assert not case.passed and case.actual == "forced violation"
    # the record alone replays the case: the same draws give the same inputs
    rng, ring = random.Random(1), parse_ring(spec)
    fd, gd = draw_unit(ring, rng), draw_unit(ring, rng)
    e1, e2 = rng.randint(-2, 2), rng.randint(-2, 2)
    assert case.inputs == {"ring": spec, "f": fd.format(), "g": gd.format(), "e1": e1, "e2": e2}
