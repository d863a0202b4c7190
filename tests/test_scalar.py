"""Exact arithmetic in Q(q, t): normalization, gcd, evaluation."""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrui import jsonio
from macrui.cli import main
from macrui.errors import ScalarDivisionError, SpecialParameterError
from macrui.polyring import MultiPoly, VarSpace
from macrui.scalar import (P_ONE, P_Q, P_T, P_ZERO, QTPolynomial, QTScalar,
                           S_ONE, S_Q, S_T, S_ZERO, one_minus_q, one_minus_t,
                           over_irreducible, qt_arith, qt_eval, qt_gcd,
                           qt_monomial)


def poly(d):
    return QTPolynomial(d)


def test_negation_identity():
    assert qt_arith(S_Q - 1, 1 - S_Q, "div") == QTScalar.from_int(-1)


def test_coprime_fraction_kept():
    s = qt_arith(QTScalar(P_ONE - P_Q * P_Q), QTScalar(P_ONE - P_T * P_T), "div")
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
        qt_arith(S_ONE, S_ZERO, "div")
    with pytest.raises(ScalarDivisionError):
        S_ZERO.inverse()


def test_zero_is_canonical():
    z = S_Q - S_Q
    assert z.num.is_zero() and z.den == P_ONE
    assert z == S_ZERO


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


def test_gcd_when_the_heuristic_gcd_fails():
    # sympy's sparse heuristic gcd gives up on this pair ("no luck"); qt_gcd
    # then finishes with sympy's remainder-sequence gcd
    a = poly({(10, 0): 24, (9, 3): -24, (9, 2): -24, (9, 1): -24, (9, 0): -24,
              (8, 5): 24, (8, 4): 24, (8, 3): 48, (8, 2): 24, (8, 1): 24,
              (7, 6): -24, (7, 5): -24, (7, 4): -24, (7, 3): -24, (6, 6): 24})
    b = poly({(0, 16): 24, (0, 15): -24, (0, 14): -24, (0, 11): 48,
              (0, 8): -24, (0, 7): -24, (0, 6): 24})
    assert qt_gcd(a, b) == poly({(0, 0): 24})
    s = QTScalar(a, b)
    assert s.num * b == s.den * a

    f = MultiPoly._raw(VarSpace.z(1), {(1,): s})
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["apply-mr", "--poly", json.dumps(jsonio.poly_to_json(f))])
    assert code == 0
    result = jsonio.poly_from_json(json.loads(buf.getvalue())["result"])
    assert result == f.scale(QTScalar.from_int(-1))


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
