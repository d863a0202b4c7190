"""CLI behavior: schemas, determinism, exit codes."""

import io
import json
import os
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from macrui import cli, jsonio
from macrui.cli import _VARIABLE_CEILINGS, _VERB_CEILINGS, main, parse_partition
from macrui.errors import MacruiError, MalformedInputError
from macrui.partitions import in_fat_hook
from macrui.macdonald import macdonald_polynomial, super_macdonald
from macrui.polyring import MultiPoly, VarSpace
from macrui.scalar import S_ONE, S_Q, S_T
from macrui.symfun import deformed_newton_sum, monomial_symmetric
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


def test_eval_shifted_needs_only_as_many_variables_as_parts():
    # the default N is |lambda| = 6; the value does not depend on N
    results = []
    for N in ([], ["--N", "3"]):
        code, out = run_cli(["eval", "--which", "shifted", "--lambda", "3,2,1",
                             "--mu", "1"] + N)
        assert code == 0
        results.append(json.loads(out)["result"])
    assert results[0] == results[1]
    code, out = run_cli(["eval", "--which", "shifted", "--lambda", "3,2,1", "--mu", "1",
                         "--N", "2"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "InvalidPartitionError"


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
    # the skew shape (2)/(3) does not exist: its term count is 0 and its builder refuses
    for argv in (["macdonald", "--lambda", "1,2"], ["skew", "--lambda", "2", "--mu", "3"]):
        code, out = run_cli(argv)
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "InvalidPartitionError", argv


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
        # fewer variables than boxes
        (["shifted-comb", "--lambda", "2,1", "--N", "2"],
         ["shifted", "--lambda", "2,1", "--N", "2"]),
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
    ["eigenvalue", "--lambda", "1", "--at", "1/2", "--format", "text"],
    ["apply-mr", "--poly", "{}"],
    ["apply-mr", "--poly", "[1]"],
    ["apply-mr", "--poly", "{not json"],
    ["apply-deformed-mr", "--poly", "[1, 2"],
    ["apply-mr", "--poly", '{"space": {"kind": "z", "N": 1}, "terms": 5}'],
    ["apply-mr", "--poly", '{"space": {"kind": "z", "N": "x"}, "terms": []}'],
    ["apply-mr", "--poly", '{"space": {"kind": "z", "N": -1}, "terms": []}'],
    ["apply-mr", "--poly", '{"space": {"kind": "w", "N": 1}, "terms": []}'],
    ["apply-mr", "--poly", '{"space": {"kind": "z", "N": 2}, "terms": [{"exp": [1], '
                           '"coeff": {"num": [[0, 0, "1"]], "den": [[0, 0, "1"]]}}]}'],
])
def test_malformed_input_is_structured_error(argv):
    code, out = run_cli(argv)
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "MalformedInputError"


def _poly_input(terms, N=2):
    """--poly JSON for a z-space polynomial from (exponent, numerator) pairs,
    each numerator a list of [q, t, coefficient] triples over the denominator 1."""
    return json.dumps({"space": {"kind": "z", "N": N}, "terms": [
        {"exp": exp, "coeff": {"num": num, "den": [[0, 0, "1"]]}} for exp, num in terms]})


@pytest.mark.parametrize("terms, message", [
    # 1*z1z2 and 2*z1z2: the last one won, and apply-mr printed the image of 2*z1z2
    ([([1, 1], [[0, 0, "1"]]), ([1, 1], [[0, 0, "2"]])], "a polynomial has two terms at [1, 1]"),
    # the coefficient q + 2q: the numerator was read as 2q
    ([([1, 1], [[1, 0, "1"], [1, 0, "2"]])], "a q,t polynomial has two terms at [1, 0]"),
])
def test_duplicate_terms_are_refused(terms, message):
    code, out = run_cli(["apply-mr", "--poly", _poly_input(terms)])
    assert code == 1
    assert json.loads(out)["error"] == {"kind": "MalformedInputError", "message": message}


def test_json_integers_are_a_sign_and_digits():
    for text, value in (("12", 12), ("-3", -3), ("+7", 7), ("007", 7), (5, 5)):
        assert jsonio._int(text, "n") == value
    for text in ("1_0", " 1", "1 ", "1\n", "", "+", "1.0", "0x1", "\u0661", True, 1.0, None):
        with pytest.raises(MalformedInputError):
            jsonio._int(text, "n")
    # "1_0" was read as 10 and " 1" as 1
    for terms in ([([1, 1], [[0, 0, "1_0"]])], [([1, 1], [[0, 0, " 1"]])],
                  [([1, "1_0"], [[0, 0, "1"]])]):
        code, out = run_cli(["apply-mr", "--poly", _poly_input(terms)])
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "MalformedInputError"
    code, out = run_cli(["apply-mr", "--poly", _poly_input([], N="1_0")])
    assert json.loads(out)["error"] == {"kind": "MalformedInputError",
                                        "message": "N must be an integer >= 0, got '1_0'"}


@pytest.mark.parametrize("argv, refusal", [
    # each was read as an integer: 1_0 as 10, " 2" as 2 and "\u0661" as 1
    (["eigenvalue", "--lambda", "1_0"], "a partition is comma-separated integers, got '1_0'"),
    (["eigenvalue", "--lambda", " 2, 1"],
     "a partition is comma-separated integers, got ' 2, 1'"),
    (["eigenvalue", "--lambda", "\u0661"],
     "a partition is comma-separated integers, got '\u0661'"),
    (["eigenvalue", "--lambda", "1", "--at", "1_0,2"],
     "--at needs two exact rationals q0,t0, got '1_0,2'"),
    (["eigenvalue", "--lambda", "1", "--at", "1/2,\u0663"],
     "--at needs two exact rationals q0,t0, got '1/2,\u0663'"),
    # refused by the parser, as a count that is not a number is
    (["macdonald", "--lambda", "1", "--N", "1_0"], "argument --N: invalid int value: '1_0'"),
    (["macdonald", "--lambda", "1", "--N", "x"], "argument --N: invalid int value: 'x'"),
    (["apply-mr", "--lambda", "1", "--N", " 2"], "argument --N: invalid int value: ' 2'"),
    (["super", "--lambda", "1", "--n", "1_0", "--m", "1"],
     "argument --n: invalid int value: '1_0'"),
    (["eval", "--which", "super", "--lambda", "1", "--mu", "1", "--n", "1", "--m", "1_0"],
     "argument --m: invalid int value: '1_0'"),
    (["verify", "--suite", "identities", "--max-weight", "1_0"],
     "argument --max-weight: invalid int value: '1_0'"),
])
def test_cli_integers_are_a_sign_and_ascii_digits(argv, refusal, capsys):
    if refusal.startswith("argument "):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert refusal in capsys.readouterr().err
        return
    code, out = run_cli(argv)
    assert code == 1
    assert json.loads(out)["error"] == {"kind": "MalformedInputError", "message": refusal}


def test_cli_integers_and_points_that_stay_accepted():
    code, out = run_cli(["eigenvalue", "--lambda", "10"])
    assert code == 0 and json.loads(out)["request"]["lambda"] == [10]
    assert parse_partition("+2,1") == (2, 1)
    for text, point in (("1/2,3", (Fraction(1, 2), 3)), ("2,1/3", (2, Fraction(1, 3))),
                        ("0.5,2", (Fraction(1, 2), 2)), (" 1/2 , 3 ", (Fraction(1, 2), 3))):
        assert cli.parse_at(text) == point
    code, out = run_cli(["macdonald", "--lambda", "1", "--N", "+2"])
    assert code == 0 and json.loads(out)["request"]["N"] == 2


@pytest.mark.parametrize("argv, flag", [
    (["macdonald", "--lambda", "2", "--N", "-1"], "N"),
    # refused before the partition is read and before the weight ceiling
    (["macdonald", "--lambda", "1,2", "--N", "-1"], "N"),
    (["macdonald", "--lambda", "9", "--N", "-1"], "N"),
    (["skew", "--lambda", "2", "--mu", "1", "--N", "-2"], "N"),
    (["shifted-comb", "--lambda", "1", "--N", "-1"], "N"),
    (["super", "--lambda", "1", "--n", "-1", "--m", "1"], "n"),
    (["shifted-super-comb", "--lambda", "1", "--n", "1", "--m", "-1"], "m"),
    (["apply-mr", "--lambda", "1", "--N", "-1"], "N"),
    (["apply-deformed-mr", "--lambda", "1", "--n", "1", "--m", "-1"], "m"),
    (["eval", "--which", "macdonald", "--lambda", "1", "--mu", "1", "--N", "-1"], "N"),
    (["eval", "--which", "shifted", "--lambda", "", "--mu", "", "--N", "-1"], "N"),
    (["eval", "--which", "super", "--lambda", "1", "--mu", "1", "--n", "-1", "--m", "1"],
     "n"),
])
def test_negative_variable_counts_are_refused(argv, flag, monkeypatch):
    def render(*args):
        raise AssertionError("a negative variable count reached a builder")
    for verb, row in cli._CONSTRUCTIONS.items():
        monkeypatch.setitem(cli._CONSTRUCTIONS, verb, row._replace(builder=render))
    code, out = run_cli(argv)
    assert code == 1
    count = argv[argv.index(f"--{flag}") + 1]
    assert json.loads(out)["error"] == {
        "kind": "MalformedInputError", "message": f"--{flag} must be nonnegative, got {count}"}


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


def _refused_at_once(argv, capsys):
    start = time.perf_counter()
    code, out = run_cli(argv)
    assert time.perf_counter() - start < 1
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "MacruiError"
    assert "above the ceiling" in error["message"]
    assert "Traceback" not in capsys.readouterr().err


def _answered_within(argv, seconds=5):
    start = time.perf_counter()
    code, out = run_cli(argv)
    assert time.perf_counter() - start < seconds, argv
    assert code == 0 and "result" in json.loads(out), argv


@pytest.mark.parametrize("verb", sorted(_VERB_CEILINGS))
def test_construction_above_its_weight_ceiling_is_refused(verb, capsys):
    extra = (["--n", "1", "--m", "1"] if "super" in verb
             else ["--mu", "1"] if verb == "skew" else [])
    weight = _VERB_CEILINGS[verb] + 1
    # a row, and for the small ceilings a column, of weight ceiling + 1
    for lam in [str(weight)] + ([",".join(["1"] * weight)] if weight < 100 else []):
        _refused_at_once([verb, "--lambda", lam] + extra, capsys)


def test_eval_and_deformed_input_keep_the_construction_ceilings(capsys):
    two = ["--n", "1", "--m", "1"]
    for which in ("macdonald", "shifted", "super", "shifted-super"):
        _refused_at_once(["eval", "--which", which, "--lambda",
                          str(_VERB_CEILINGS[which] + 1), "--mu", "1"] + two, capsys)
    _refused_at_once(["apply-deformed-mr", "--lambda", str(_VERB_CEILINGS["super"] + 1)]
                     + two, capsys)


def test_operator_above_its_variable_ceiling_is_refused(capsys):
    N = _VARIABLE_CEILINGS["apply-mr"] + 1
    _refused_at_once(["apply-mr", "--lambda", "1", "--N", str(N)], capsys)
    _refused_at_once(["apply-mr", "--lambda", ",".join(["1"] * N)], capsys)
    poly = jsonio.poly_to_json(MultiPoly.one(VarSpace.z(N)))
    _refused_at_once(["apply-mr", "--poly", json.dumps(poly)], capsys)
    k = _VARIABLE_CEILINGS["apply-deformed-mr"] + 1
    _refused_at_once(["apply-deformed-mr", "--lambda", "1", "--n", str(k - 1), "--m", "1"],
                     capsys)
    poly = jsonio.poly_to_json(MultiPoly.one(VarSpace.xy(1, k - 1)))
    _refused_at_once(["apply-deformed-mr", "--poly", json.dumps(poly)], capsys)


def test_operator_above_its_degree_ceiling_is_refused(capsys):
    # the power sum p_d in two variables, on which the ceilings were measured
    d = cli._OPERATORS["apply-mr"].degree + 1
    for N in ("1", "2"):
        _refused_at_once(["apply-mr", "--lambda", str(d), "--N", N], capsys)
    _refused_at_once(["apply-mr", "--lambda", "20000", "--N", "2"], capsys)
    poly = jsonio.poly_to_json(monomial_symmetric((d,), 2))
    _refused_at_once(["apply-mr", "--poly", json.dumps(poly)], capsys)
    d = cli._OPERATORS["apply-deformed-mr"].degree + 1
    poly = jsonio.poly_to_json(deformed_newton_sum(d, 1, 1))
    _refused_at_once(["apply-deformed-mr", "--poly", json.dumps(poly)], capsys)


def test_readme_lists_the_degree_ceilings():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].strip("`") in cli._OPERATORS:
            table[cells[0].strip("`")] = int(cells[1].replace(",", ""))
    assert table == {verb: op.degree for verb, op in cli._OPERATORS.items()}


def test_readme_lists_the_verb_ceilings():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        verb = cells[0].strip("`")
        if len(cells) == 5 and (verb in _VERB_CEILINGS or verb in _VARIABLE_CEILINGS):
            table[verb] = int(cells[2].replace(",", ""))
    assert table == {**_VERB_CEILINGS, **_VARIABLE_CEILINGS}


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
    # the benchmark's reference holds the same totals, so a change to a
    # suite's families fails here before it fails the benchmark
    reference = json.loads((Path(__file__).resolve().parent.parent
                            / "bench" / "reference.json").read_text())["verify_w3"]
    assert reference == {suite: {"ok": True, "total": total}
                         for suite, total in totals.items()}
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


@pytest.mark.parametrize("verb", sorted(cli._CONSTRUCTIONS))
def test_over_cap_alphabet_is_refused_before_any_work(verb, capsys):
    # a shape at the verb's weight ceiling in 65 variables: the alphabet is
    # refused before the solve and the term count
    construction = cli._CONSTRUCTIONS[verb]
    argv = [verb, "--lambda", str(construction.weight)]
    argv += {"N": ["--N", "65"], "mu N": ["--mu", "1", "--N", "65"],
             "n m": ["--n", "40", "--m", "25"]}[construction.alphabet]
    start = time.perf_counter()
    code, out = run_cli(argv)
    assert time.perf_counter() - start < 1, argv
    assert code == 1
    assert out == ('{"error": {"kind": "ValueError", "message": '
                   '"at most 64 variables are supported, got 65"}}\n')
    assert "Traceback" not in capsys.readouterr().err


def test_poly_file_input(tmp_path):
    f = macdonald_polynomial((2,), 2)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(jsonio.poly_to_json(f)))
    code, out = run_cli(["apply-mr", "--poly-file", str(path)])
    assert code == 0
    assert jsonio.poly_from_json(json.loads(out)["result"]) == f.scale(-(1 + S_Q))
    path.write_text("{not json")
    code, out = run_cli(["apply-mr", "--poly-file", str(path)])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "MalformedInputError" and str(path) in error["message"]
    code, out = run_cli(["apply-mr", "--poly-file", str(tmp_path / "missing.json")])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "FileNotFoundError"


@pytest.mark.parametrize("argv, message", [
    (["apply-mr", "--N", "2"], "apply-mr needs --lambda or --poly/--poly-file"),
    (["apply-deformed-mr", "--lambda", "1", "--n", "1"],
     "apply-deformed-mr needs --poly/--poly-file or --lambda with --n, --m"),
    (["eval", "--which", "shifted-super", "--lambda", "1", "--mu", "1", "--m", "1"],
     "eval for two-alphabet objects needs --n and --m"),
])
def test_missing_arguments_are_structured_errors(argv, message):
    code, out = run_cli(argv)
    assert code == 1
    assert json.loads(out)["error"] == {"kind": "MacruiError", "message": message}


def test_numeric_evaluation_of_a_polynomial():
    code, out = run_cli(["macdonald", "--lambda", "2", "--N", "2", "--at", "1/2,3"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["at"] == {"q": "1/2", "t": "3"}
    f = macdonald_polynomial((2,), 2)
    assert {tuple(t["exp"]): t["coeff"] for t in result["terms"]} \
        == {e: str(c.evaluate(Fraction(1, 2), Fraction(3))) for e, c in f.terms.items()}


def test_readme_command_lines_run():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if "macrui" in line]
    assert len(lines) > 10
    for line in lines:
        if "<polynomial JSON>" in line:
            continue
        argv = shlex.split(line, comments=True)
        code, out = run_cli(argv[argv.index("macrui") + 1:])
        assert code == 0, line
        assert "error" not in out, line


def test_readme_library_quick_start_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python", 1)[1]
    block = block.split("```", 1)[0]
    assert "assert" in block
    exec(compile(block, "README.md", "exec"), {})


def test_memory_error_is_a_structured_report(monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError("out of memory")
    row = cli._CONSTRUCTIONS["macdonald"]
    monkeypatch.setitem(cli._CONSTRUCTIONS, "macdonald", row._replace(builder=exhausted))
    code, out = run_cli(["macdonald", "--lambda", "2", "--N", "2"])
    assert code == 1
    assert json.loads(out) == {"error": {"kind": "MemoryError", "message": "out of memory"}}
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("verb", sorted(cli._CONSTRUCTIONS))
def test_term_count_bounds_the_rendering(verb):
    # exact for P_lam; the skew count is taken for lam/(1)
    builder, alphabet, _, _ = cli._CONSTRUCTIONS[verb]
    skew = {"mu": (1,)} if alphabet == "mu N" else {}
    for lam in [(1,), (2,), (1, 1), (2, 1), (3,), (2, 1, 1), (3, 2)]:
        for N in range(1, 6):
            space = {"n": N // 2, "m": N - N // 2} if alphabet == "n m" else {"N": N}
            if alphabet == "n m" and not in_fat_hook(lam, N // 2, N - N // 2):
                continue
            if "N" in space and N < len(lam):
                continue
            terms = len(builder(lam, *skew.values(), *space.values()).terms)
            count = cli._rendered_terms(verb, lam, space, **skew)
            assert terms <= count, (lam, space)
            if verb.startswith("macdonald"):
                assert terms == count, (lam, space)


def _just_above(verb, ceiling, count):
    """The smallest variable count whose count(N) is above the ceiling."""
    N = 1
    while count(N) <= ceiling:
        N += 1
    assert N <= 64, verb
    return N


@pytest.mark.parametrize("verb", sorted(cli._CONSTRUCTIONS))
def test_construction_above_its_term_ceiling_is_refused(verb, capsys):
    builder, alphabet, _, ceiling = cli._CONSTRUCTIONS[verb]
    lam, skew = ((3, 2, 1), {"mu": (1,)}) if alphabet == "mu N" else ((3, 2, 1), {})
    if alphabet == "n m":
        n = _just_above(verb, ceiling, lambda k: cli._rendered_terms(
            verb, lam, {"n": k, "m": k}, **skew))
        argv = ["--n", str(n), "--m", str(n)]
    else:
        N = _just_above(verb, ceiling, lambda k: cli._rendered_terms(
            verb, lam, {"N": k}, **skew))
        argv = ["--N", str(N)] + (["--mu", "1"] if skew else [])
    _refused_at_once([verb, "--lambda", "3,2,1"] + argv, capsys)
    if verb in ("macdonald", "shifted", "super", "shifted-super"):
        # eval renders nothing, so the term count does not bound it
        _answered_within(["eval", "--which", verb, "--lambda", "3,2,1", "--mu", "1"] + argv)


def test_found_oversized_requests_are_refused(capsys):
    # P_(2,1,1,1) in 64 variables has 10,166,016 terms, m_(4,3,2,1) in 17
    # variables 57,120
    _refused_at_once(["macdonald", "--lambda", "2,1,1,1", "--N", "64"], capsys)
    _answered_within(["eval", "--which", "macdonald", "--lambda", "2,1,1,1",
                      "--mu", ",".join(["1"] * 64)])
    _refused_at_once(["apply-mr", "--lambda", "4,3,2,1", "--N", "17"], capsys)
    poly = jsonio.poly_to_json(macdonald_polynomial((1, 1), 17))
    _refused_at_once(["apply-mr", "--poly", json.dumps(poly)], capsys)
    poly = jsonio.poly_to_json(super_macdonald((2, 1), 5, 4))
    _refused_at_once(["apply-deformed-mr", "--poly", json.dumps(poly)], capsys)
    _refused_at_once(["apply-deformed-mr", "--lambda", "2,1", "--n", "5", "--m", "4"],
                     capsys)


def test_operator_variable_count_is_refused_before_the_term_count(capsys):
    # counting the terms of m_(1) in a million variables is one product
    _refused_at_once(["apply-mr", "--lambda", "1", "--N", "1000000"], capsys)
    _refused_at_once(["apply-deformed-mr", "--lambda", "8", "--n", "1000000", "--m", "1"],
                     capsys)


def test_operator_just_above_its_size_ceiling_is_refused(capsys):
    # the next sizes in the README table: 105 x 2^15 and 120 x 4^8
    _refused_at_once(["apply-mr", "--lambda", "1,1", "--N", "15"], capsys)
    _refused_at_once(["apply-deformed-mr", "--lambda", "3", "--n", "4", "--m", "4"], capsys)


def test_readme_ceiling_rows_are_under_the_term_ceilings():
    # the shape at each verb's weight ceiling, at its default alphabet
    rows = {"macdonald": ((1,) * 8, {"N": 8}),
            "macdonald-comb": ((9,) + (1,) * 9, {"N": 10}),
            "skew": ((8,) + (1,) * 7, {"N": 8}),
            "super": ((4, 1, 1, 1, 1), {"n": 2, "m": 2}),
            "super-comb": ((11,) + (1,) * 11, {"n": 2, "m": 2}),
            "shifted": ((7,), {"N": 7}),
            "shifted-comb": ((7,), {"N": 7}),
            "shifted-super": ((7,), {"n": 2, "m": 2}),
            "shifted-super-comb": ((7,) + (1,) * 6, {"n": 2, "m": 2})}
    assert set(rows) == set(cli._CONSTRUCTIONS)
    for verb, (lam, space) in rows.items():
        skew = {"mu": (1,)} if verb == "skew" else {}
        assert cli._rendered_terms(verb, lam, space, **skew) <= cli._CONSTRUCTIONS[verb].terms
    # --lambda 1 at the variable ceiling: N terms in N variables
    for verb, op in cli._OPERATORS.items():
        assert op.variables * op.growth ** op.variables <= op.size


def test_readme_lists_the_size_ceilings():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        verb = cells[0].strip("`")
        if len(cells) == 4 and (verb in cli._CONSTRUCTIONS or verb in cli._OPERATORS):
            table[verb] = int(cells[1].replace(",", ""))
    assert table == {**{verb: c.terms for verb, c in cli._CONSTRUCTIONS.items()},
                     **{verb: op.size for verb, op in cli._OPERATORS.items()}}
