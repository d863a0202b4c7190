"""The one writer of a CLI result, against the JSON forms it streams."""

import io
import json
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from macrui import jsonio
from macrui.cli import main
from macrui.errors import SpecialParameterError
from macrui.macdonald import macdonald_polynomial, super_macdonald
from macrui.operators import apply_mr, mr_eigenvalue
from macrui.polyring import MultiPoly, VarSpace
from macrui.symfun import monomial_symmetric
from macrui.verify import run_suite


def _written(*args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        jsonio.write_result(*args)
    return buf.getvalue()


def _document(request, result, note=None):
    payload = {"request": request, "result": result}
    if note is not None:
        payload["note"] = note
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _at(q0, t0):
    return {"q": str(q0), "t": str(t0)}


POLYS = [
    ("z", macdonald_polynomial((2, 1), 3)),
    ("xy", super_macdonald((2, 1), 1, 1)),
    ("zero", MultiPoly.zero(VarSpace.xy(1, 1))),
    ("no variables", MultiPoly.one(VarSpace.z(0))),
]
POINTS = [(Fraction(1, 2), Fraction(3)), (Fraction(2), Fraction(1, 3))]


@pytest.mark.parametrize("name, f", POLYS, ids=[name for name, _ in POLYS])
def test_polynomial_bytes_are_those_of_poly_to_json(name, f):
    request = {"verb": "test", "lambda": [2, 1]}
    assert _written(request, f) == _document(request, jsonio.poly_to_json(f))
    for q0, t0 in POINTS:
        terms = [{"exp": list(e), "coeff": str(c.evaluate(q0, t0))}
                 for e, c in sorted(f.terms.items())]
        result = {"space": jsonio.space_to_json(f.space), "terms": terms, "at": _at(q0, t0)}
        assert _written(request, f, (q0, t0)) == _document(request, result)


def test_scalar_and_report_bytes():
    request = {"verb": "eigenvalue", "lambda": [2, 1]}
    s = mr_eigenvalue((2, 1))
    assert _written(request, s) == _document(request, jsonio.scalar_to_json(s))
    for q0, t0 in POINTS:
        result = {"value": str(s.evaluate(q0, t0)), "at": _at(q0, t0)}
        assert _written(request, s, (q0, t0)) == _document(request, result)
    report = run_suite("identities", 1)
    request = {"verb": "verify", "suite": "identities", "max_weight": 1}
    assert _written(request, report) == _document(request, report)


def test_fat_hook_note():
    # (2, 2) is outside the (1, 1) fat hook, so the restriction is zero
    f = super_macdonald((2, 2), 1, 1)
    assert f.is_zero()
    request = {"verb": "super", "lambda": [2, 2], "n": 1, "m": 1}
    expect = _document(request, jsonio.poly_to_json(f), "outside fat hook")
    assert _written(request, f, None, "outside fat hook") == expect
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["super", "--lambda", "2,2", "--n", "1", "--m", "1"]) == 0
    assert buf.getvalue() == expect


def test_each_distinct_coefficient_is_serialized_once(monkeypatch):
    # the operator image of p_40 in 3 variables repeats a few coefficient
    # objects over all of its terms
    f = apply_mr(monomial_symmetric((40,), 3))
    distinct = len({id(c) for c in f.terms.values()})
    assert distinct < len(f.terms) // 100
    calls = []
    scalar_to_json = jsonio.scalar_to_json

    def counted(s):
        calls.append(s)
        return scalar_to_json(s)

    monkeypatch.setattr(jsonio, "scalar_to_json", counted)
    _written({"verb": "test"}, f)
    assert len(calls) == distinct


def test_failed_evaluation_writes_nothing():
    f = macdonald_polynomial((2,), 2)
    buf = io.StringIO()
    with redirect_stdout(buf), pytest.raises(SpecialParameterError):
        # t = q is a pole of the coefficient of m_(1, 1)
        jsonio.write_result({"verb": "test"}, f, (Fraction(2), Fraction(2)))
    assert buf.getvalue() == ""


class _Count:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)

    def flush(self):
        pass


def test_printing_does_not_hold_the_document():
    # the image of p_100 in 3 variables prints 18 MB over 5,151 terms, with
    # three distinct coefficients
    sink = _Count()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            code = main(["apply-mr", "--lambda", "100", "--N", "3"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.size > 17_000_000
    assert peak < sink.size
