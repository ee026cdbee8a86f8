import io
import json
import shlex
from pathlib import Path

import pytest

from ccsym.cli import run_command


def run(argv):
    buf = io.StringIO()
    code = run_command(argv, stdout=buf)
    return code, buf.getvalue()


def test_symbol_cc_example():
    code, out = run(
        ["symbol", "cc", "--ring", "F3[e]/(e^2)", "--f", "1 - e*t^-1", "--g", "1 - t"]
    )
    assert code == 0 and out.strip() == "1+e"


def test_verify_reciprocity_example():
    code, out = run(
        ["verify", "reciprocity-ar", "--ring", "F3[e]/(e^2)", "--f", "(x - e)", "--g", "(x - 1)"]
    )
    assert code == 0
    assert "product/sum: 1" in out and out.strip().endswith("PASS")


def test_symbol_cc_reads_minus_after_power():
    # -t^2 means -(t^2) = 4*t^2, not (-t)^2 = t^2, whose symbol with t is 1
    for f in ("-t^2", "4*t^2"):
        code, out = run(["symbol", "cc", "--ring", "F5", f"--f={f}", "--g", "t"])
        assert code == 0 and out.strip() == "4"


def test_symbol_tame_and_kato():
    code, out = run(
        ["symbol", "tame", "--ring", "F7", "--f", "(x - 1) * (x - 2)^-1",
         "--g", "(x - 3)", "--at", "1"]
    )
    assert code == 0 and out.strip() == "3"
    code, out = run(
        ["symbol", "kato", "--ring", "F5[x]/(x^3)", "--f", "x * (z)", "--g", "(z^2)"]
    )
    assert code == 0 and out.strip() == "x^2"


def test_decompose_and_residue():
    code, out = run(["decompose", "--ring", "F5", "--f", "2 + 3*t + t^2 + O(t^3)"])
    assert code == 0
    assert "winding: 0" in out and "leading unit: 2" in out
    assert "{1: 1, 2: 2}" in out
    code, out = run(["residue", "--ring", "F3[e]/(e^2)", "--f", "t^-1*dt"])
    assert code == 0 and out.strip() == "1"
    code, out = run(["residue", "--ring", "F3[e]/(e^2)", "--f", "(t^-1)*de^dt"])
    assert code == 0 and out.strip() == "de"


def test_dlog2_verb():
    code, out = run(
        ["dlog2", "--ring", "F3[e]/(e^2)", "--f", "(1+e)*t", "--g", "2*t"]
    )
    assert code == 0 and "res2: de" in out


def test_rational_examples():
    # exact printed values over Q[e]/(e^3), denominators reduced
    f, g = "1/2 - e*t^-3 + 5/7*e^2*t^-1", "(2/3 + e)*t - 1/4*t^2 + e*t^-1"
    code, out = run(["symbol", "cc", "--ring", "Q[e]/(e^3)", "--f", f, "--g", g])
    assert code == 0 and out.strip() == "1/2+27/512*e-489003/917504*e^2"
    f, g = "(1/2+e)*t - 3*e^2*t^-1 + 2/3*t^2", "(3 - e/5)*t^-2 + e*t^-1 + 7"
    code, out = run(["dlog2", "--ring", "Q[e]/(e^3)", "--f", f, "--g", g])
    assert code == 0 and out.splitlines()[-1] == "res2: (-59/15-1199/225*e)*de"
    assert out.startswith("(24*e*t^-3-32*e*t^-2+(-59/15-1199/225*e)*t^-1+229/45-2096/675*e+")


def test_dlog2_exact_deep_pole():
    args = ["--ring", "F3[e]/(e^4)", "--f", "1-e*t^-20", "--g", "1-t"]
    code, out = run(["dlog2", *args])
    assert code == 0 and "res2: (1+e+e^2)*de" in out
    code, out = run(["verify", "dlog-square", *args])
    assert code == 0
    assert out.splitlines() == ["res2(dlog2(f,g)) = (1+e+e^2)*de", "PASS"]


def test_decompose_deep_split():
    code, out = run(
        ["decompose", "--ring", "F3[e]/(e^3)",
         "--f", "1 - e*t^-2 + e*t^-1 + t + 2*t^3 + O(t^10)"]
    )
    assert code == 0 and "coordinate precision: 6" in out


def test_kato_over_zmod_p_matches_prime_field():
    # the level is the ring's: F5, Z/5 and Z/5^1 are the base field alike,
    # not a level ring k[x]/(x^m), and are refused alike
    outs = [
        run(["symbol", "kato", "--ring", ring, "--f", "x * (z)", "--g", "(z^2)"])
        for ring in ("F5", "Z/5", "Z/5^1", "F5[x]/(x^3)")
    ]
    assert outs == [(2, "")] * 3 + [(0, "x^2\n")]


def test_verify_residue_sum():
    code, out = run(
        ["verify", "residue-sum", "--ring", "F3[e]/(e^2)", "--f", "de/(x - 1) - de/(x - 2)"]
    )
    assert code == 0 and out.strip().endswith("PASS")


def test_verify_dlog_square():
    code, out = run(
        ["verify", "dlog-square", "--ring", "F3[e]/(e^2)",
         "--f", "1 - t + O(t^9)", "--g", "1 - e*t^-1"]
    )
    assert code == 0 and "PASS" in out


def test_suite_determinism():
    args = ["suite", "dlog-square", "--ring", "F5[e]/(e^3)", "--cases", "20", "--seed", "7"]
    code1, out1 = run(args)
    code2, out2 = run(args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_suite_json_schema():
    code, out = run(
        ["suite", "weil", "--cases", "8", "--seed", "3", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"suite", "config", "cases", "failures", "elapsed_ms"}
    assert data["failures"] == 0 and len(data["cases"]) == 8
    for case in data["cases"]:
        assert set(case) == {"inputs", "expected", "actual", "pass"}
        assert case["pass"] is True


def test_suite_parameters_below_one_exit_code(capsys):
    for args, field in (
        (["lemma34", "--exponent-bound", "0"], "exponent_bound"),
        (["lemma35", "--exponent-bound", "0"], "exponent_bound"),
        (["dlog-square", "--exponent-bound", "0"], "exponent_bound"),
        (["weil", "--cases", "0"], "cases"),
        (["weil", "--cases", "-5"], "cases"),
        (["precision-coherence", "--xprec", "0"], "xprec"),
    ):
        code, out = run(["suite", *args])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: ") and field in err and "Traceback" not in err


def test_suite_report_file(tmp_path):
    target = tmp_path / "report.json"
    code, out = run(
        ["suite", "lemma35", "--cases", "6", "--seed", "1", "--format", "json",
         "--out", str(target)]
    )
    assert code == 0 and out == ""
    data = json.loads(target.read_text())
    assert data["suite"] == "lemma35" and data["failures"] == 0


def test_parse_error_exit_code():
    code, _ = run(["symbol", "cc", "--ring", "F3[e]/(e^2)", "--f", "1 + q", "--g", "t"])
    assert code == 2
    for ring in ("Z/1", "Z/6", "Z/12"):
        assert run(["symbol", "cc", "--ring", ring, "--f", "1", "--g", "t"]) == (2, "")


def test_constant_reciprocity():
    code, out = run(
        ["verify", "reciprocity-ar", "--ring", "F3[e]/(e^2)", "--f", "1+e", "--g", "2"]
    )
    assert code == 0 and "product/sum: 1" in out


def test_empty_rational_factor_exit_code():
    for text in ("2 * * (x - 1)", "* (x - 1)", "(x - 1) *"):
        code, out = run(["verify", "reciprocity-ar", "--ring", "F5", "--f", text, "--g", "x"])
        assert code == 2 and out == ""


def test_zero_pole_order_exit_code():
    code, out = run(["verify", "residue-sum", "--ring", "F3[e]/(e^2)", "--f", "de/(x - 1)^0"])
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "text", ["de/(x - 1)^-2", "0*de/(x - 1)^-2 + de/(x-2) - de/(x-2)", "0*de/(x - 1)^0"]
)
def test_pole_order_below_one_exit_code(text, capsys):
    code, out = run(["verify", "residue-sum", "--ring", "F3[e]/(e^2)", "--f", text])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: pole orders must be >= 1\n"


def test_verify_dlog_square_reports_violation(monkeypatch):
    import ccsym.forms

    monkeypatch.setattr(ccsym.forms, "contou_carrere", lambda f, g: f.ring.one)
    code, out = run(
        ["verify", "dlog-square", "--ring", "F3[e]/(e^2)", "--f", "1 - t + O(t^9)",
         "--g", "1 - e*t^-1"]
    )
    assert code == 1
    assert out.splitlines() == ["res2(dlog2(f,g)) = 2*de", "dlog<f,g> = 0", "FAIL"]


def test_uniformizer_invariance_suite_seed_5():
    code, out = run(["suite", "uniformizer-invariance", "--cases", "100", "--seed", "5"])
    assert code == 0 and out.strip().endswith("PASS")


def test_kato_level_must_be_positive(capsys):
    # the ring spec states the level, "F5[x]/(x^3)"; --xprec is an unknown flag
    for level in ("0", "-2"):
        ring = f"F5[x]/(x^{level})"
        code, out = run(["symbol", "kato", "--ring", ring, "--f", "x * (z)", "--g", "(z^2)"])
        assert code == 2 and out == ""
        assert ring in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run(["symbol", "kato", "--ring", "F5[x]/(x^3)", "--xprec", "3", "--f", "x * (z)", "--g", "z"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --xprec" in capsys.readouterr().err


def test_negative_tprec_exit_code(capsys):
    # a series states its precision, "+ O(t^N)"; --tprec is an unknown flag
    with pytest.raises(SystemExit) as exc:
        run(["symbol", "cc", "--ring", "F5", "--f", "1+t", "--g", "2", "--tprec", "-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tprec" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ring, f, g",
    [("F3[e]/(e^2)", "(x - 1)^1000000", "(x - 2)"), ("Z/9", "(x - 3)^1000000", "(x - 1)")],
)
def test_reciprocity_with_a_large_exponent(ring, f, g):
    # each chart expands (x - s)^n to the terms it is asked for, not n + 1
    code, out = run(["verify", "reciprocity-ar", "--ring", ring, "--f", f, "--g", g])
    assert code == 0 and out.strip().endswith("PASS")


@pytest.mark.parametrize("law", ["reciprocity-ar", "weil", "residue-sum"])
def test_report_inputs_replay(law):
    code, out = run(["suite", law, "--cases", "12", "--seed", "1", "--format", "json"])
    assert code == 0
    for case in json.loads(out)["cases"]:
        given = case["inputs"]
        argv = ["verify", law, "--ring", given["ring"], "--f=" + given["f"]]
        if "g" in given:
            argv.append("--g=" + given["g"])
        assert run(argv)[0] == 0, given


def test_readme_examples_run():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("ccsym ") and " suite " not in ln]
    assert len(lines) == 10
    for line in lines:
        code, out = run(shlex.split(line)[1:])
        assert code == 0, line
        if line is lines[0]:
            assert out.strip() == "1+e"  # as its README comment says
