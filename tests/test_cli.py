"""CLI behavior: schemas, determinism, exit codes."""

import io
import json
import os
import resource
import shlex
import signal
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from macrui import cli, jsonio
from macrui.cli import main, parse_partition
from macrui.errors import MacruiError, MalformedInputError
from macrui.macdonald import macdonald_polynomial, super_macdonald
from macrui.polyring import MultiPoly, VarSpace
from macrui.scalar import QTScalar, S_ONE, S_Q, S_T
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
    for argv in (["super", "--lambda", "2,2", "--n", "1", "--m", "1"],
                 ["super", "--lambda", "2,1", "--n", "0", "--m", "0"],
                 # the operator's input is that zero, and the note was missing
                 ["apply-deformed-mr", "--lambda", "2,1", "--n", "0", "--m", "0"],
                 ["apply-deformed-mr", "--lambda", "2,2", "--n", "1", "--m", "1"]):
        code, out = run_cli(argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["note"] == "outside fat hook", argv
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


def test_operator_verbs_refuse_a_poly_in_the_other_space():
    # each reached the library's ValueError: "default block applies to
    # z-spaces only", "the deformed operator acts on xy-spaces"
    for f, verb, message in (
            (super_macdonald((1,), 1, 1), "apply-mr", "apply-mr does not act on xy-space "
             "polynomials; give this one to apply-deformed-mr"),
            (macdonald_polynomial((1,), 2), "apply-deformed-mr", "apply-deformed-mr does not "
             "act on z-space polynomials; give this one to apply-mr")):
        code, out = run_cli([verb, "--poly", json.dumps(jsonio.poly_to_json(f))])
        assert code == 1
        assert json.loads(out)["error"] == {"kind": "MalformedInputError", "message": message}


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
    # the skew shape (2)/(3) does not exist: its builder refuses it
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
    # refused before the partition is read and before any work
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


def _refused_by_the_budget(argv, monkeypatch, capsys, seconds=0.1):
    """The request ends in the budget's report, with no traceback, soon after
    a budget of ``seconds``."""
    monkeypatch.setattr(cli, "_BUDGET_SECONDS", seconds)
    start = time.perf_counter()
    code, out = run_cli(argv)
    assert time.perf_counter() - start < seconds + 1, argv
    assert code == 1, argv
    assert json.loads(out) == {"error": {
        "kind": "BudgetExceededError",
        "message": f"the request ran past its budget of {seconds} s"}}, argv
    assert "Traceback" not in capsys.readouterr().err


def _answered_within(argv, seconds=5):
    """The request exits 0 with a result within ``seconds``; returns the
    length of its output, which is counted, not kept."""
    class Count(io.TextIOBase):
        head, size = "", 0

        def write(self, text):
            self.head = self.head or text
            self.size += len(text)
            return len(text)

    sink = Count()
    start = time.perf_counter()
    with redirect_stdout(sink):
        code = main(argv)
    assert time.perf_counter() - start < seconds, argv
    assert code == 0 and sink.head.startswith('{"request":'), argv
    return sink.size


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@pytest.mark.parametrize("argv", [
    # under every former ceiling; it ran for about 80 s
    ["shifted", "--lambda", "7", "--N", "10"],
    ["verify", "--suite", "vanishing", "--max-weight", "6"],
    # 0.2 s of work, then about 20 s evaluating its first coefficient
    ["apply-mr", "--lambda", "20000", "--N", "2", "--at", "1/3,1/5"],
])
def test_budget_ends_a_request_that_runs_past_it(argv, monkeypatch, capsys):
    _refused_by_the_budget(argv, monkeypatch, capsys, seconds=1)


def test_memory_budget_ends_in_the_memory_error_report():
    # in a child, so that the address space of this process is never limited
    child = ("import sys; from macrui import cli; cli._BUDGET_BYTES = 300 * 2 ** 20; "
             "sys.exit(cli.main(['apply-mr', '--lambda', '1000', '--N', '4']))")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          env=_child_env(), timeout=120)
    assert proc.returncode == 1
    assert json.loads(proc.stdout) == {"error": {"kind": "MemoryError", "message": ""}}
    assert proc.stderr == b""


def _caller_alarm(signum, frame):
    raise AssertionError("the caller's alarm fired during the request")


def test_main_gives_the_process_back():
    # after a result, an error report and a closed pipe, with and without a
    # handler and a running timer of the caller's own
    class ClosedPipe(io.TextIOBase):
        def write(self, text):
            raise BrokenPipeError

        def fileno(self):
            return fd

    limits = resource.getrlimit(resource.RLIMIT_AS)
    handler = signal.getsignal(signal.SIGALRM)
    fd = os.open(os.devnull, os.O_WRONLY)
    try:
        for caller, timer in ((handler, 0), (_caller_alarm, 1000)):
            signal.signal(signal.SIGALRM, caller)
            signal.setitimer(signal.ITIMER_REAL, timer)
            for argv, out in ((["eigenvalue", "--lambda", "2"], io.StringIO()),
                              (["eigenvalue", "--lambda", "1,2"], io.StringIO()),
                              (["eigenvalue", "--lambda", "2"], ClosedPipe())):
                with redirect_stdout(out):
                    main(argv)
                assert signal.getsignal(signal.SIGALRM) is caller
                delay, interval = signal.getitimer(signal.ITIMER_REAL)
                assert timer - 10 < delay <= timer and interval == 0
                assert resource.getrlimit(resource.RLIMIT_AS) == limits
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        os.close(fd)


def _budget_state():
    return signal.getitimer(signal.ITIMER_REAL), resource.getrlimit(resource.RLIMIT_AS)


@pytest.mark.parametrize("output", [[], ["--at", "1/2,3"], ["--format", "text"]])
def test_budget_runs_until_the_output_is_rendered_and_stops_before_printing(
        output, monkeypatch):
    # the work and the rendering of its result run under the budget, every
    # write to stdout under the caller's own timer and limit
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    budget = (cli._BUDGET_BYTES if soft == resource.RLIM_INFINITY
              else min(cli._BUDGET_BYTES, soft), hard)
    seen = {"work": [], "print": []}
    row = cli._CONSTRUCTIONS["macdonald"]

    def build(*args):
        seen["work"].append(_budget_state())
        return row.builder(*args)

    def rendering(render):
        def recorded(*args):
            seen["work"].append(_budget_state())
            return render(*args)
        return recorded

    class Sink(io.TextIOBase):
        def write(self, text):
            seen["print"].append(_budget_state())
            return len(text)

    monkeypatch.setitem(cli._CONSTRUCTIONS, "macdonald", row._replace(builder=build))
    monkeypatch.setattr(jsonio, "scalar_to_json", rendering(jsonio.scalar_to_json))
    monkeypatch.setattr(QTScalar, "evaluate", rendering(QTScalar.evaluate))
    monkeypatch.setattr(MultiPoly, "__str__", rendering(MultiPoly.__str__))
    with redirect_stdout(Sink()):
        assert main(["macdonald", "--lambda", "2", "--N", "2"] + output) == 0
    assert len(seen["work"]) > 1 and seen["print"]
    for (delay, interval), limits in seen["work"]:
        assert 0 < delay <= cli._BUDGET_SECONDS and interval == 0
        assert limits == budget
    assert set(seen["print"]) == {((0.0, 0.0), (soft, hard))}


class _Bounded(io.TextIOBase):
    """A stdout that keeps what is written to it, and fails past 1 MB."""
    kept = ""

    def write(self, text):
        self.kept += text
        assert len(self.kept) < 2 ** 20, "the output was not refused"
        return len(text)


def test_output_above_the_address_space_budget_is_refused(capsys):
    # the image of p_20000 in two variables: 0.2 s of work, then 20,001
    # terms that each repeat one of two coefficients, 11.2 GB of JSON
    sink = _Bounded()
    start = time.perf_counter()
    with redirect_stdout(sink):
        code = main(["apply-mr", "--lambda", "20000", "--N", "2"])
    assert time.perf_counter() - start < 5
    assert code == 1
    assert json.loads(sink.kept) == {"error": {
        "kind": "BudgetExceededError",
        "message": "the result is 11156757960 bytes long, past the budget of "
                   f"{cli._BUDGET_BYTES} bytes"}}
    assert "Traceback" not in capsys.readouterr().err


# The weight, term, size, variable, degree and work ceilings are gone.  The
# requests they refused end in the budget's report, tested under a short
# budget, or are answered.

# for each construction, the first request above its former weight ceiling
# that did not finish within a minute
_ABOVE_THE_WEIGHT_CEILING = {
    "eigenvalue": ["--lambda", "4000001"],
    "macdonald": ["--lambda", "9", "--N", "9"],
    "macdonald-comb": ["--lambda", "10" + ",1" * 9],
    "skew": ["--lambda", "8" + ",1" * 8, "--mu", "1"],
    "super": ["--lambda", "9", "--n", "1", "--m", "1"],
    "super-comb": ["--lambda", "12" + ",1" * 11, "--n", "2", "--m", "2"],
    "shifted": ["--lambda", "8"],
    "shifted-comb": ["--lambda", "8"],
    "shifted-super": ["--lambda", "8", "--n", "1", "--m", "1"],
    "shifted-super-comb": ["--lambda", "7" + ",1" * 7, "--n", "2", "--m", "2"],
}


@pytest.mark.parametrize("verb", sorted(_ABOVE_THE_WEIGHT_CEILING))
def test_construction_above_its_weight_ceiling_is_refused(verb, monkeypatch, capsys):
    _refused_by_the_budget([verb] + _ABOVE_THE_WEIGHT_CEILING[verb], monkeypatch, capsys)


def test_eval_and_deformed_input_keep_the_construction_ceilings(monkeypatch, capsys):
    # eval and an operator's --lambda input cost what their construction does
    two = ["--n", "1", "--m", "1"]
    for which, weight in (("macdonald", 9), ("shifted", 8), ("super", 9), ("shifted-super", 8)):
        _refused_by_the_budget(["eval", "--which", which, "--lambda", str(weight), "--mu", "1"]
                               + two, monkeypatch, capsys)
    _refused_by_the_budget(["apply-deformed-mr", "--lambda", "9"] + two, monkeypatch, capsys)


def test_operator_above_its_variable_ceiling_is_refused(monkeypatch, capsys):
    # the requests the former variable ceilings, 17 and 9, refused
    N = 18
    for argv in (["apply-mr", "--lambda", "1", "--N", str(N)],
                 ["apply-mr", "--lambda", ",".join(["1"] * N)],
                 ["apply-mr", "--poly", json.dumps(jsonio.poly_to_json(
                     monomial_symmetric((1,), N)))],
                 ["apply-deformed-mr", "--lambda", "1", "--n", "5", "--m", "5"],
                 ["apply-deformed-mr", "--poly", json.dumps(jsonio.poly_to_json(
                     super_macdonald((1,), 5, 5)))]):
        _refused_by_the_budget(argv, monkeypatch, capsys)


def test_operator_above_its_degree_ceiling_is_refused(monkeypatch, capsys):
    # the power sums p_d above the former degree ceilings, 3,000 and 102,400;
    # p_3001 in two variables is answered
    _refused_by_the_budget(["apply-mr", "--lambda", "3001", "--N", "3"], monkeypatch, capsys)
    poly = jsonio.poly_to_json(deformed_newton_sum(102401, 1, 1))
    _refused_by_the_budget(["apply-deformed-mr", "--poly", json.dumps(poly)],
                           monkeypatch, capsys)


def test_construction_requests_the_former_ceilings_refused_are_answered():
    # a row and a column of each former weight ceiling + 1 that now finish
    two = ["--n", "1", "--m", "1"]
    # (9) at the default N is pinned in test_cli_digests
    for argv in (["macdonald", "--lambda", ",".join("1" * 9)],
                 ["macdonald-comb", "--lambda", "19"],
                 ["macdonald-comb", "--lambda", ",".join("1" * 19)],
                 ["skew", "--lambda", "16", "--mu", "1"],
                 ["skew", "--lambda", ",".join("1" * 16), "--mu", "1"],
                 ["super", "--lambda", ",".join("1" * 9)] + two,
                 ["shifted-comb", "--lambda", ",".join("1" * 8)],
                 ["shifted-super-comb", "--lambda", "14"] + two,
                 ["shifted-super-comb", "--lambda", ",".join("1" * 14)] + two):
        _answered_within(argv)


def test_operator_requests_the_former_ceilings_refused_are_answered():
    # the engine does nothing with a constant, and in one variable it
    # shifts one term
    poly = jsonio.poly_to_json(MultiPoly.one(VarSpace.z(18)))
    _answered_within(["apply-mr", "--poly", json.dumps(poly)], 1)
    poly = jsonio.poly_to_json(MultiPoly.one(VarSpace.xy(1, 9)))
    _answered_within(["apply-deformed-mr", "--poly", json.dumps(poly)], 1)
    _answered_within(["apply-mr", "--lambda", "3001", "--N", "1"], 1)
    # ten variables, above the former variable ceiling of 9
    _answered_within(["apply-deformed-mr", "--lambda", "1", "--n", "9", "--m", "1"], 10)
    poly = jsonio.poly_to_json(super_macdonald((1,), 1, 9))
    _answered_within(["apply-deformed-mr", "--poly", json.dumps(poly)], 10)
    # above the former degree and work ceilings: 3,002 and 1,823 terms over
    # two distinct coefficients, 237 MB and 86 MB of JSON
    assert _answered_within(["apply-mr", "--lambda", "3001", "--N", "2"]) == 236668821
    assert _answered_within(["apply-mr", "--lambda", "1822", "--N", "2"]) == 85688439


def test_work_count_refuses_the_found_requests(monkeypatch, capsys):
    # each passed the former variable, size and degree ceilings, or ran out
    # of memory under them
    for argv in (["--lambda", "1000", "--N", "4"], ["--lambda", "200,200", "--N", "4"],
                 ["--lambda", "3000", "--N", "3"], ["--lambda", "4,3,2,1", "--N", "17"]):
        _refused_by_the_budget(["apply-mr"] + argv, monkeypatch, capsys)
    poly = jsonio.poly_to_json(deformed_newton_sum(204800, 1, 1))
    _refused_by_the_budget(["apply-deformed-mr", "--poly", json.dumps(poly)],
                           monkeypatch, capsys)


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
    proc = subprocess.Popen([sys.executable, "-m", "macrui.cli", "eigenvalue",
                             "--lambda", "2,1"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == b""


def test_python_m_macrui_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "macrui", "eigenvalue", "--lambda", "1"],
                          capture_output=True, env=_child_env(), timeout=120)
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
    # a shape whose construction runs past the budget, in 65 variables: the
    # alphabet is refused before the solve
    argv = [verb, "--lambda", "9"]
    argv += {"N": ["--N", "65"], "mu N": ["--mu", "1", "--N", "65"],
             "n m": ["--n", "40", "--m", "25"]}[cli._CONSTRUCTIONS[verb].alphabet]
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


# for each construction, the first alphabet above its former term ceiling
# for (3, 2, 1)
_ABOVE_THE_TERM_CEILING = {
    "macdonald": ["--N", "30"],
    "macdonald-comb": ["--N", "18"],
    "skew": ["--mu", "1", "--N", "22"],
    "super": ["--n", "10", "--m", "10"],
    "super-comb": ["--n", "8", "--m", "8"],
    "shifted": ["--N", "16"],
    "shifted-comb": ["--N", "14"],
    "shifted-super": ["--n", "7", "--m", "7"],
    "shifted-super-comb": ["--n", "6", "--m", "6"],
}


@pytest.mark.parametrize("verb", sorted(_ABOVE_THE_TERM_CEILING))
def test_construction_above_its_term_ceiling_is_refused(verb, monkeypatch, capsys):
    argv = _ABOVE_THE_TERM_CEILING[verb]
    _refused_by_the_budget([verb, "--lambda", "3,2,1"] + argv, monkeypatch, capsys)
    if verb in ("macdonald", "shifted", "super", "shifted-super"):
        # eval renders nothing, so its time does not grow with the alphabet
        _answered_within(["eval", "--which", verb, "--lambda", "3,2,1", "--mu", "1"] + argv)


def test_found_oversized_requests_are_refused(monkeypatch, capsys):
    # P_(2,1,1,1) in 64 variables has 10,166,016 terms, m_(4,3,2,1) in 17
    # variables 57,120
    _refused_by_the_budget(["macdonald", "--lambda", "2,1,1,1", "--N", "64"],
                           monkeypatch, capsys)
    _answered_within(["eval", "--which", "macdonald", "--lambda", "2,1,1,1",
                      "--mu", ",".join(["1"] * 64)])
    for argv in (["apply-mr", "--lambda", "4,3,2,1", "--N", "17"],
                 ["apply-mr", "--poly", json.dumps(jsonio.poly_to_json(
                     macdonald_polynomial((1, 1), 17)))],
                 ["apply-deformed-mr", "--poly", json.dumps(jsonio.poly_to_json(
                     super_macdonald((2, 1), 5, 4)))],
                 ["apply-deformed-mr", "--lambda", "2,1", "--n", "5", "--m", "4"]):
        _refused_by_the_budget(argv, monkeypatch, capsys)


def test_comb_verbs_refuse_more_parts_than_variables_as_their_references_do():
    # the tableau sums return zero there, so the CLI checks the parts itself
    for verbs, argv in ((("macdonald", "macdonald-comb"), ["--lambda", "1,1", "--N", "1"]),
                        (("shifted", "shifted-comb"), ["--lambda", "2,1", "--N", "1"])):
        reference, comb = (run_cli([verb] + argv) for verb in verbs)
        assert comb == reference
        assert comb[0] == 1
        assert json.loads(comb[1])["error"]["kind"] == "InvalidPartitionError"


def test_operator_variable_count_is_refused_before_the_term_count(capsys):
    # the alphabet is refused by VarSpace, as for a construction, before
    # the work is counted: however large, before the input's term is padded
    for argv, count in ((["apply-mr", "--lambda", "1", "--N", "1000000"], 1000000),
                        (["apply-mr", "--lambda", "1", "--N", str(10 ** 20)], 10 ** 20),
                        (["apply-deformed-mr", "--lambda", "8", "--n", "1000000", "--m", "1"],
                         1000001),
                        (["apply-deformed-mr", "--lambda", "1", "--n", str(10 ** 9),
                          "--m", "1"], 10 ** 9 + 1)):
        start = time.perf_counter()
        code, out = run_cli(argv)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert out == ('{"error": {"kind": "ValueError", "message": '
                       f'"at most 64 variables are supported, got {count}"}}}}\n')
        assert "Traceback" not in capsys.readouterr().err


def test_operator_just_above_its_size_ceiling_is_refused(monkeypatch, capsys):
    # the requests just above the former work ceiling on a row, a column and
    # a hook; (1822) at N = 2 is answered
    for argv in (["--lambda", "2", "--N", "17"], ["--lambda", "1,1", "--N", "16"],
                 ["--lambda", "11" + ",1" * 11]):
        _refused_by_the_budget(["apply-mr"] + argv, monkeypatch, capsys)
    for lam, n, m in (("1", 6, 4), ("2", 5, 4), ("1,1", 5, 4)):
        _refused_by_the_budget(["apply-deformed-mr", "--lambda", lam, "--n", str(n),
                                "--m", str(m)], monkeypatch, capsys)
