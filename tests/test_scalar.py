"""Exact arithmetic in Q(q, t): normalization, gcd, evaluation."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrui import jsonio, scalar
from macrui.cli import main
from macrui.errors import ScalarDivisionError, SpecialParameterError
from macrui.polyring import MultiPoly, VarSpace
from macrui.scalar import (P_ONE, P_Q, P_T, P_ZERO, QTPolynomial, QTScalar,
                           S_ONE, S_Q, S_T, S_ZERO, one_minus_q, one_minus_t,
                           over_irreducible, qt_eval, qt_gcd, qt_monomial)


def poly(d):
    return QTPolynomial(d)


def test_negation_identity():
    assert (S_Q - 1) / (1 - S_Q) == QTScalar.from_int(-1)


def test_coprime_fraction_kept():
    s = QTScalar(P_ONE - P_Q * P_Q) / QTScalar(P_ONE - P_T * P_T)
    assert s.num == P_ONE - P_Q * P_Q or s.num == -(P_ONE - P_Q * P_Q)
    assert s.den.terms in ((P_ONE - P_T * P_T).terms, (P_T * P_T - P_ONE).terms)
    # denominator sign convention: leading coefficient positive
    assert s.den.terms[max(s.den.terms)] > 0


def test_common_factor_removed():
    s = QTScalar(poly({(2, 0): 1, (0, 0): -1}), poly({(1, 0): 1, (0, 0): -1}))
    assert s == S_Q + 1
    assert s.den is P_ONE


def test_gcd_examples():
    assert qt_gcd(poly({(2, 0): 1, (0, 0): -1}), P_Q - P_ONE) == P_Q - P_ONE
    qt = P_Q * P_T
    g = qt_gcd(P_ONE - qt, P_ONE - qt * qt)
    assert g in (P_ONE - qt, qt - P_ONE)
    assert g.terms[max(g.terms)] > 0
    p = poly({(1, 2): -6, (0, 0): 2})
    g0 = qt_gcd(p, QTPolynomial.from_int(0))
    assert g0 in (p, -p)
    with pytest.raises(ValueError):
        qt_gcd(QTPolynomial.from_int(0), QTPolynomial.from_int(0))


def test_eval_examples():
    assert qt_eval(one_minus_q() / one_minus_t(), Fraction(1, 2), 2) == Fraction(-1, 2)
    with pytest.raises(SpecialParameterError):
        qt_eval(S_ONE / (S_T - S_Q), Fraction(1, 3), Fraction(1, 3))
    assert qt_eval(S_Q + 1, 3, 17) == 4


def test_division_by_zero():
    with pytest.raises(ScalarDivisionError):
        S_ONE / S_ZERO
    with pytest.raises(ScalarDivisionError):
        S_ZERO.inverse()


def test_zero_is_canonical():
    z = S_Q - S_Q
    assert z.num.is_zero() and z.den == P_ONE
    assert z == S_ZERO


def test_polynomial_refuses_non_integer_terms():
    for terms in ({(0, 0): 0.5}, {(0, 0): Fraction(1, 2)}, {(0, 0): 2.0},
                  {(1.7, 0): 2}, {(0, Fraction(1)): 1}):
        with pytest.raises(ValueError, match="must be an integer"):
            QTPolynomial(terms)
    assert QTPolynomial({(1, 0): True}) == P_Q


def test_from_int_refuses_non_integers():
    for n in (0.5, Fraction(1, 2), 3.0):
        with pytest.raises(ValueError, match="must be an integer"):
            QTPolynomial.from_int(n)
    assert QTPolynomial.from_int(-3) == -3


def test_monomial_refuses_non_integers():
    for args in ((1.5, 0), (0, 2.0), (1, 1, 0.5), (1, 1, Fraction(1, 2))):
        with pytest.raises(ValueError, match="must be an integer"):
            QTPolynomial.monomial(*args)
    assert QTPolynomial.monomial(1, 0) == P_Q


def test_scalar_refuses_a_non_integer_numerator_or_denominator():
    for args in ((0.5,), (1, 0.5), (Fraction(1, 2),), (S_ONE,)):
        with pytest.raises(ValueError, match="must be an integer"):
            QTScalar(*args)
    assert QTScalar(2, 4) == QTScalar(P_ONE, QTPolynomial.from_int(2))


def test_constants_hash_like_the_int_they_equal():
    constants = [(P_ZERO, 0), (P_ONE, 1), (S_ZERO, 0), (S_ONE, 1),
                 (QTPolynomial.from_int(-7), -7), (QTScalar.from_int(-1), -1),
                 (QTScalar.from_int(2 ** 70), 2 ** 70)]
    for value, n in constants:
        assert value == n and hash(value) == hash(n)
        assert {value: "v"}.get(n) == "v" and {n: "n"}.get(value) == "n"
    # a polynomial value equals its numerator, so it hashes like it too
    assert S_Q == P_Q and hash(S_Q) == hash(P_Q)
    assert {P_Q + P_T: "p"}.get(S_Q + S_T) == "p"


def test_polynomial_arithmetic_with_a_multipoly_is_multipoly_arithmetic():
    # QTPolynomial's +, - and * hand a MultiPoly back to Python, so the
    # MultiPoly side takes q as a constant
    space = VarSpace.z(2)
    z1, q = MultiPoly.variable(space, 0), MultiPoly.constant(space, P_Q)
    for result, expected in ((P_Q + z1, q + z1), (P_Q - z1, q - z1),
                             (P_Q * z1, q * z1), (z1 - P_Q, z1 - q)):
        assert isinstance(result, MultiPoly) and result == expected
    # and a QTScalar operand reaches QTScalar's reflected methods
    assert P_Q + S_T == S_Q + S_T and P_Q - S_T == S_Q - S_T
    assert P_Q * S_T == S_Q * S_T


@pytest.mark.parametrize("bad", [1.5, Fraction(1, 2), "q", None])
def test_polynomial_arithmetic_with_unsupported_types_is_a_type_error(bad):
    for op in (lambda: P_Q + bad, lambda: bad + P_Q, lambda: P_Q - bad,
               lambda: bad - P_Q, lambda: P_Q * bad, lambda: bad * P_Q):
        with pytest.raises(TypeError):
            op()
    # ints still combine, from either side
    assert P_Q + 1 == 1 + P_Q and 2 - P_Q == -(P_Q - 2) and 3 * P_Q == P_Q * 3


def test_negative_powers():
    s = qt_monomial(-2, 1)
    assert s == QTScalar(P_T, P_Q * P_Q)
    assert s * qt_monomial(2, -1) == S_ONE


def test_swap_qt_involution():
    s = (S_ONE - S_Q) / (S_ONE - S_T * S_Q)
    assert s.swap_qt().swap_qt() == s
    assert s.swap_qt() == (S_ONE - S_T) / (S_ONE - S_T * S_Q)


coeffs = st.integers(min_value=-4, max_value=4)
exponents = st.integers(min_value=0, max_value=3)


@st.composite
def polynomials(draw, min_terms=0):
    n = draw(st.integers(min_value=min_terms, max_value=4))
    terms = {}
    for _ in range(n):
        terms[(draw(exponents), draw(exponents))] = draw(coeffs)
    return QTPolynomial(terms)


@st.composite
def scalars(draw):
    num = draw(polynomials())
    den = draw(polynomials(min_terms=1).filter(lambda p: not p.is_zero()))
    return QTScalar(num, den)


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.inverse() == S_ONE


@settings(max_examples=60, deadline=None)
@given(polynomials(min_terms=1).filter(lambda p: not p.is_zero()),
       polynomials(min_terms=1).filter(lambda p: not p.is_zero()),
       polynomials(min_terms=1).filter(lambda p: not p.is_zero()))
def test_gcd_completeness(x, y, g):
    assert QTScalar(x * g, y * g) == QTScalar(x, y)


@settings(max_examples=60, deadline=None)
@given(polynomials(min_terms=1).filter(lambda p: not p.is_zero()),
       polynomials(min_terms=1).filter(lambda p: not p.is_zero()))
def test_gcd_divides_both(a, b):
    g = qt_gcd(a, b)
    assert a.exact_divide(g) * g == a
    assert b.exact_divide(g) * g == b


def test_gcd_when_the_heuristic_gcd_fails(monkeypatch):
    # the heuristic gcd gives up on this pair ("no luck", as sympy's does);
    # qt_gcd then finishes with sympy's dense gcd, down to its remainder sequence
    a = poly({(10, 0): 24, (9, 3): -24, (9, 2): -24, (9, 1): -24, (9, 0): -24,
              (8, 5): 24, (8, 4): 24, (8, 3): 48, (8, 2): 24, (8, 1): 24,
              (7, 6): -24, (7, 5): -24, (7, 4): -24, (7, 3): -24, (6, 6): 24})
    b = poly({(0, 16): 24, (0, 15): -24, (0, 14): -24, (0, 11): 48,
              (0, 8): -24, (0, 7): -24, (0, 6): 24})
    assert scalar._heugcd(a.terms, b.terms, 0) is None
    fallbacks = []
    fallback = scalar._fallback_cofactors
    monkeypatch.setattr(scalar, "_fallback_cofactors",
                        lambda fa, fb: fallbacks.append(1) or fallback(fa, fb))
    assert qt_gcd(a, b) == poly({(0, 0): 24})
    assert fallbacks
    s = QTScalar(a, b)
    assert s.num * b == s.den * a

    f = MultiPoly._raw(VarSpace.z(1), {(1,): s})
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["apply-mr", "--poly", json.dumps(jsonio.poly_to_json(f))])
    assert code == 0
    result = jsonio.poly_from_json(json.loads(buf.getvalue())["result"])
    assert result == f.scale(QTScalar.from_int(-1))


def sympy_gcd(a, b):
    """The oracle: sympy's sparse gcd (its dense one if the heuristic gives
    up), sign-normalized like qt_gcd."""
    from sympy.polys.domains import ZZ
    from sympy.polys.polyerrors import HeuristicGCDFailed
    from sympy.polys.rings import ring

    R = ring("q,t", ZZ)[0]
    fa, fb = R.from_dict(a.terms), R.from_dict(b.terms)
    try:
        g = fa.gcd(fb)
    except HeuristicGCDFailed:
        g = R.dmp_inner_gcd(fa, fb)[0]
    g = poly({(int(e[0]), int(e[1])): int(c) for e, c in g.to_dict().items()})
    return -g if g.terms[max(g.terms)] < 0 else g


@st.composite
def gcd_pairs(draw):
    """(x*g, y*g) for random x, y, g, times a shared monomial with integer
    content.  Exponents may be multiples of 2 in q or of 3 in t only (the
    deflation), any operand may be one term, and signs are random, so
    leading coefficients are often negative."""
    stride = draw(st.sampled_from([(1, 1), (2, 1), (1, 3), (2, 3)]))

    def factor():
        n = draw(st.sampled_from([1, 4]))
        terms = {(stride[0] * draw(exponents), stride[1] * draw(exponents)):
                 draw(coeffs.filter(bool)) for _ in range(draw(st.integers(1, n)))}
        return QTPolynomial(terms)

    x, y, g = factor(), factor(), factor()
    shared = QTPolynomial.monomial(stride[0] * draw(st.integers(0, 2)),
                                   stride[1] * draw(st.integers(0, 2)),
                                   draw(st.integers(1, 6)))
    sign = draw(st.sampled_from([1, -1]))
    return x * g * shared * sign, y * g * shared


@settings(max_examples=150, deadline=None)
@given(gcd_pairs())
def test_gcd_matches_sympy(pair):
    a, b = pair
    g = qt_gcd(a, b)
    assert g == sympy_gcd(a, b)
    g2, ca, cb = scalar._gcd_cofactors(a, b)
    assert g2 == g and g * ca == a and g * cb == b


def test_gcd_fixed_pairs():
    one_q, one_t = P_ONE + P_Q, P_T - P_ONE
    # under one Kronecker substitution q -> t^k both sides vanish at t = 1,
    # so the images share t - 1, which is not a common factor
    assert qt_gcd(one_q * one_t, P_Q - P_T) == P_ONE
    cyclotomic = poly({(0, 0): 1, (0, 1): 1, (0, 2): 1, (0, 3): 1})
    a = cyclotomic * poly({(3, 0): 2, (1, 0): -1, (0, 0): 5})
    assert qt_gcd(a, poly({(0, 4): 1, (0, 0): -1})) == cyclotomic


def test_sympy_stays_off_the_import_path():
    # sympy is imported only where the heuristic gcd gives up: not by the
    # package, a verify suite or a super restriction
    code = "\n".join([
        "import contextlib, io, sys",
        "import macrui",
        "assert 'sympy' not in sys.modules, 'import macrui'",
        "from macrui.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert main(['verify', '--suite', 'kernel', '--max-weight', '2']) == 0",
        "assert 'sympy' not in sys.modules, 'verify'",
        "macrui.super_macdonald((2, 1), 2, 2)",
        "assert 'sympy' not in sys.modules, 'super_macdonald'",
    ])
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars())
def test_eval_is_ring_homomorphism(a, b):
    q0, t0 = Fraction(2, 3), Fraction(5, 7)
    try:
        va, vb = a.evaluate(q0, t0), b.evaluate(q0, t0)
        vab = (a * b).evaluate(q0, t0)
        vsum = (a + b).evaluate(q0, t0)
    except SpecialParameterError:
        return
    assert vab == va * vb
    assert vsum == va + vb


def test_over_irreducible_matches_general_reduction():
    one_q, one_t = P_ONE - P_Q, P_ONE - P_T
    two_plus_t = poly({(0, 0): 2, (0, 1): 1})
    one_plus_q = P_ONE + P_Q
    cases = [
        (one_q * two_plus_t * P_T, P_ONE),          # 1 - q divides num
        (one_t * one_t * 3, P_ONE),                  # 1 - t divides num
        (P_ONE + P_Q + P_T * P_T, P_ONE),            # divides neither
        (P_Q * 5, -P_ONE),                           # a negative denominator
        (two_plus_t, P_T - P_ONE),                   # den * p flips sign
        (one_plus_q * one_q * P_T, one_plus_q * two_plus_t),    # den != 1, shared factor
        (two_plus_t * one_t, one_plus_q * 4),        # den != 1, no shared factor
        (P_ZERO, one_plus_q),                        # zero
    ]
    for num, den in cases:
        s = QTScalar(num, den)
        for p in (one_q, one_t):
            got = over_irreducible(s, p)
            assert got == QTScalar(num, den * p)
            assert (got.den is P_ONE) == (got.den.terms == P_ONE.terms)
        # both factors in turn, as the deformed operator divides them
        both = over_irreducible(over_irreducible(s, one_q), one_t)
        assert both == QTScalar(num, den * one_q * one_t)
