"""CLI behavior: schemas, determinism, exit codes."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from macrui import jsonio
from macrui.cli import main, parse_partition
from macrui.errors import MacruiError
from macrui.macdonald import macdonald_polynomial, super_macdonald
from macrui.polyring import MultiPoly, VarSpace
from macrui.scalar import S_ONE, S_Q, S_T, qt_ratio
from macrui.symfun import SymExpansion
from macrui.verify import SUITES, _WEIGHT_CEILINGS, run_suite


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_parse_partition():
    assert parse_partition("2,1") == (2, 1)
    assert parse_partition("") == ()
    with pytest.raises(Exception):
        parse_partition("1,2")


def test_scalar_json_round_trip():
    s = (S_ONE - S_Q) / (S_ONE - S_T * S_Q)
    assert jsonio.scalar_from_json(jsonio.scalar_to_json(s)) == s


def test_poly_json_round_trip():
    f = super_macdonald((2, 1), 1, 1)
    assert jsonio.poly_from_json(jsonio.poly_to_json(f)) == f
    g = macdonald_polynomial((2,), 2)
    assert jsonio.poly_from_json(jsonio.poly_to_json(g)) == g


def test_expansion_json_round_trip():
    e = SymExpansion("p", 3, {(2, 1): qt_ratio(2), (1,): S_T})
    assert jsonio.expansion_from_json(jsonio.expansion_to_json(e)) == e


def test_macdonald_verb_matches_library():
    code, out = run_cli(["macdonald", "--lambda", "2", "--N", "2"])
    assert code == 0
    payload = json.loads(out)
    f = jsonio.poly_from_json(payload["result"])
    assert f == macdonald_polynomial((2,), 2)


def test_determinism():
    args = ["super", "--lambda", "2,1", "--n", "1", "--m", "1"]
    _, out1 = run_cli(args)
    _, out2 = run_cli(args)
    assert out1 == out2


def test_off_hook_note():
    code, out = run_cli(["super", "--lambda", "2,2", "--n", "1", "--m", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["note"] == "outside fat hook"
    assert payload["result"]["terms"] == []


def test_eigenvalue_verb():
    code, out = run_cli(["eigenvalue", "--lambda", "2"])
    assert code == 0
    payload = json.loads(out)
    assert jsonio.scalar_from_json(payload["result"]) == -(1 + S_Q)


def test_eval_verb_shifted_normalization():
    code, out = run_cli(["eval", "--which", "shifted", "--lambda", "2", "--mu", "2"])
    assert code == 0
    payload = json.loads(out)
    from macrui.partitions import hook_product
    assert jsonio.scalar_from_json(payload["result"]) == hook_product((2,))


def test_numeric_evaluation_flag():
    code, out = run_cli(["eigenvalue", "--lambda", "1,1", "--at", "1/2,3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["value"] == "-4"


def test_numeric_evaluation_pole_is_structured_error():
    # at q = t every coefficient of this shape has a pole
    code, out = run_cli(["macdonald", "--lambda", "2", "--N", "2", "--at", "2,2"])
    assert code == 1
    payload = json.loads(out)
    assert payload["error"]["kind"] == "SpecialParameterError"


def test_apply_mr_verb():
    code, out = run_cli(["apply-mr", "--lambda", "1", "--N", "2"])
    assert code == 0
    payload = json.loads(out)
    f = jsonio.poly_from_json(payload["result"])
    sp = VarSpace.z(2)
    assert f == -(MultiPoly.variable(sp, 0) + MultiPoly.variable(sp, 1))


def test_apply_mr_poly_input():
    f = macdonald_polynomial((2,), 2)
    blob = json.dumps(jsonio.poly_to_json(f))
    code, out = run_cli(["apply-mr", "--poly", blob])
    assert code == 0
    payload = json.loads(out)
    assert jsonio.poly_from_json(payload["result"]) == f.scale(-(1 + S_Q))


def test_apply_deformed_mr_verb():
    code, out = run_cli(["apply-deformed-mr", "--lambda", "1", "--n", "1", "--m", "1"])
    assert code == 0
    payload = json.loads(out)
    assert jsonio.poly_from_json(payload["result"]) == -super_macdonald((1,), 1, 1)


def test_verify_verb_passes():
    code, out = run_cli(["verify", "--suite", "cherednik", "--max-weight", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["ok"]
    assert payload["result"]["failed"] == 0


def test_invalid_partition_is_structured_error():
    code, out = run_cli(["macdonald", "--lambda", "1,2"])
    assert code == 1
    payload = json.loads(out)
    assert "error" in payload


def test_text_format():
    code, out = run_cli(["macdonald", "--lambda", "1", "--N", "2", "--format", "text"])
    assert code == 0
    assert out.strip() == "z1 + z2"


def test_comb_verbs_match_primary_routes():
    pairs = [
        (["macdonald-comb", "--lambda", "2,1", "--N", "3"],
         ["macdonald", "--lambda", "2,1", "--N", "3"]),
        (["super-comb", "--lambda", "2,1", "--n", "1", "--m", "1"],
         ["super", "--lambda", "2,1", "--n", "1", "--m", "1"]),
        (["shifted-comb", "--lambda", "2", "--N", "2"],
         ["shifted", "--lambda", "2", "--N", "2"]),
        (["shifted-super-comb", "--lambda", "1,1", "--n", "1", "--m", "1"],
         ["shifted-super", "--lambda", "1,1", "--n", "1", "--m", "1"]),
    ]
    for comb_args, main_args in pairs:
        code1, out1 = run_cli(comb_args)
        code2, out2 = run_cli(main_args)
        assert code1 == 0 and code2 == 0
        lhs = jsonio.poly_from_json(json.loads(out1)["result"])
        rhs = jsonio.poly_from_json(json.loads(out2)["result"])
        assert lhs == rhs, comb_args


def test_skew_verb():
    code, out = run_cli(["skew", "--lambda", "2", "--mu", "1", "--N", "1"])
    assert code == 0
    from macrui.macdonald import skew_tableau_sum
    assert jsonio.poly_from_json(json.loads(out)["result"]) \
        == skew_tableau_sum((2,), (1,), 1)


def test_eval_macdonald_and_super():
    code, out = run_cli(["eval", "--which", "macdonald", "--lambda", "1,1",
                         "--mu", "1,1"])
    assert code == 0
    # m_(1,1) at (q, q) is q^2
    from macrui.scalar import q_pow
    assert jsonio.scalar_from_json(json.loads(out)["result"]) == q_pow(2)
    code, out = run_cli(["eval", "--which", "super", "--lambda", "2,2",
                         "--mu", "1", "--n", "1", "--m", "1"])
    assert code == 0
    assert jsonio.scalar_from_json(json.loads(out)["result"]).is_zero()


def test_verify_text_format():
    code, out = run_cli(["verify", "--suite", "identities", "--max-weight", "1",
                         "--format", "text"])
    assert code == 0
    assert out.startswith("suite identities")
    assert "[ok  ]" in out


@pytest.mark.parametrize("argv", [
    ["eigenvalue", "--lambda", "1", "--at", "1/0,2"],
    ["apply-mr", "--poly", "{}"],
    ["apply-mr", "--poly", "[1]"],
])
def test_malformed_input_is_structured_error(argv):
    code, out = run_cli(argv)
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "MalformedInputError"


def test_non_divisible_error_keeps_remainder():
    # x1 + y1 is symmetric in each block but not in the deformed algebra
    sp = VarSpace.xy(1, 1)
    f = MultiPoly.variable(sp, 0) + MultiPoly.variable(sp, 1)
    code, out = run_cli(["apply-deformed-mr", "--poly", json.dumps(jsonio.poly_to_json(f))])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "NonDivisibleError"
    y1 = MultiPoly.variable(sp, 1)
    assert jsonio.poly_from_json(error["remainder"]) == (y1 * y1).scale(S_Q - S_T)


def test_verify_rejects_negative_weight():
    code, out = run_cli(["verify", "--suite", "cherednik", "--max-weight", "-1"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "MacruiError"


@pytest.mark.parametrize("at", ["x", "1,2"])
def test_verify_refuses_at(at):
    # verify checks identities over Q(q, t); a point, well-formed or not,
    # is refused rather than ignored
    code, out = run_cli(["verify", "--suite", "kernel", "--max-weight", "1", "--at", at])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "MalformedInputError"
    assert repr(at) in error["message"]


def test_verify_empty_run_is_not_ok():
    # commdia checks weights 1..max_weight, so weight 0 checks nothing
    assert run_suite("commdia", 0)["total"] == 0
    assert not run_suite("commdia", 0)["ok"]
    code, out = run_cli(["verify", "--suite", "commdia", "--max-weight", "0"])
    assert code == 1
    assert not json.loads(out)["result"]["ok"]


def test_verify_reports_lowered_bounds():
    report = run_suite("cherednik", 6)
    assert report["bounds"]["Hecke quadratic"] == {"degree": 3}
    assert report["bounds"]["commutativity"] == {"degree": 3}
    assert report["ok"] and report["total"] == report["passed"] == 17
    assert run_suite("combinatorial", 1)["bounds"]["tableau"] == {"N": 1}
    code, out = run_cli(["verify", "--suite", "cherednik", "--max-weight", "1",
                         "--format", "text"])
    assert code == 0
    assert "bound: Hecke quadratic degree<=1" in out


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_weight_above_ceiling_is_refused(suite, capsys):
    ceiling = _WEIGHT_CEILINGS[suite]
    for weight in sorted({ceiling + 1, 30, 100000000}):
        if weight <= ceiling:
            continue
        start = time.perf_counter()
        code, out = run_cli(["verify", "--suite", suite, "--max-weight", str(weight)])
        assert time.perf_counter() - start < 1
        assert code == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "MacruiError"
        assert f"ceiling {ceiling}" in error["message"]
        assert "Traceback" not in capsys.readouterr().err
    with pytest.raises(MacruiError):
        run_suite(suite, ceiling + 1)


def test_verify_ceilings_are_listed_in_help(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    for suite, ceiling in _WEIGHT_CEILINGS.items():
        assert f"{suite} {ceiling}" in out


def test_readme_ceiling_table_matches_the_ceilings():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].strip("`") in SUITES:
            table[cells[0].strip("`")] = int(cells[1])
    assert table == _WEIGHT_CEILINGS


def test_verify_weight_three_totals_are_pinned():
    # recorded before the weight ceilings were introduced
    totals = {"eigen": 34, "commdia": 24, "kernel": 22, "duality": 49,
              "vanishing": 32, "combinatorial": 55, "cherednik": 17,
              "identities": 32}
    assert set(totals) == set(SUITES)
    for suite, total in totals.items():
        report = run_suite(suite, 3)
        assert report["ok"] and report["total"] == report["passed"] == total


def test_closed_stdout_exits_quietly():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen([sys.executable, "-m", "macrui.cli", "eigenvalue",
                             "--lambda", "2,1"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == b""


def test_python_m_macrui_runs_the_cli():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "macrui", "eigenvalue", "--lambda", "1"],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert "result" in json.loads(proc.stdout)


@pytest.mark.parametrize("argv", [
    ["macdonald", "--lambda", "1", "--N", "1200"],
    # a verify weight this large is refused by the suite's weight ceiling
    # first: see test_verify_weight_above_ceiling_is_refused
    ["super", "--lambda", "1", "--n", "40", "--m", "40"],
])
def test_oversized_variable_count_is_refused(argv, capsys):
    code, out = run_cli(argv)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "ValueError"
    assert "at most 64 variables" in error["message"]
    assert "Traceback" not in capsys.readouterr().err
