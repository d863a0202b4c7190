"""Sparse polynomial arithmetic, division by v_i - v_j, substitution, symmetry."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrui.errors import SpaceMismatchError
from macrui.polyring import (MultiPoly, VarSpace, _div_difference,
                             linear_combination)
from macrui.scalar import (P_ONE, QTScalar, S_ONE, S_Q, S_T, S_ZERO, q_pow,
                           qt_monomial, t_pow)


Z2 = VarSpace.z(2)
X1, X2 = MultiPoly.variable(Z2, 0), MultiPoly.variable(Z2, 1)


def test_arith_examples():
    assert (X1 + X2) * (X1 - X2) == X1 * X1 - X2 * X2
    f = X1 * X2 + X1.scale(S_T)
    assert f + MultiPoly.zero(Z2) == f
    assert f - f == MultiPoly.zero(Z2)
    g = (X1 - X2.scale(S_T)) * (X2 - X1.scale(S_T))
    expect = MultiPoly(Z2, {
        (1, 1): S_ONE + S_T * S_T,
        (2, 0): -S_T,
        (0, 2): -S_T,
    })
    assert g == expect


def test_variable_count_is_capped():
    assert VarSpace.z(64).dim == VarSpace.xy(40, 24).dim == 64
    for make in (lambda: VarSpace.z(65), lambda: VarSpace.xy(64, 1),
                 lambda: VarSpace.z(10 ** 8)):
        with pytest.raises(ValueError, match="at most 64 variables"):
            make()


def test_exponents_must_be_integers():
    for e in ((1.5, 0), (1.0, 0), (0, "1")):
        with pytest.raises(ValueError, match="must be an integer"):
            MultiPoly(Z2, {e: 1})
    assert MultiPoly(Z2, {(1, 0): 1}) == X1


NOT_SCALARS = (0.5, Fraction(1, 2), "1")


@pytest.mark.parametrize("bad", NOT_SCALARS)
def test_polynomial_refuses_non_scalar_coefficients(bad):
    with pytest.raises(ValueError, match="a scalar must be"):
        MultiPoly(Z2, {(1, 0): bad})


@pytest.mark.parametrize("bad", NOT_SCALARS)
def test_constant_refuses_non_scalars(bad):
    with pytest.raises(ValueError, match="a scalar must be"):
        MultiPoly.constant(Z2, bad)


@pytest.mark.parametrize("bad", NOT_SCALARS)
def test_scale_refuses_non_scalars(bad):
    with pytest.raises(ValueError, match="a scalar must be"):
        X1.scale(bad)


@pytest.mark.parametrize("bad", NOT_SCALARS)
def test_linear_combination_refuses_non_scalars(bad):
    with pytest.raises(ValueError, match="a scalar must be"):
        linear_combination(Z2, [(bad, X1)])


@pytest.mark.parametrize("bad", NOT_SCALARS)
def test_arithmetic_with_unsupported_types_is_a_type_error(bad):
    for op in (lambda: X1 + bad, lambda: bad + X1, lambda: X1 - bad,
               lambda: bad - X1, lambda: X1 * bad, lambda: bad * X1):
        with pytest.raises(TypeError):
            op()
    # the supported constants still combine
    assert X1 + 1 == 1 + X1 == X1 + S_ONE == X1 + P_ONE
    assert 2 - X1 == -(X1 - 2) and X1 * 2 == 2 * X1 == X1.scale(2)


def test_variable_count_must_be_an_integer():
    for make in (lambda: VarSpace.z(2.0), lambda: VarSpace.xy(1, 1.5),
                 lambda: VarSpace.z("2")):
        with pytest.raises(ValueError, match="variable count must be an integer"):
            make()


def test_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        X1 + MultiPoly.variable(VarSpace.z(3), 0)


def _divide_by_difference(f):
    quo, rem = _div_difference(f.terms, 0, 1)
    return MultiPoly(Z2, quo), (None if rem is None else MultiPoly(Z2, rem))


def test_exact_divide_examples():
    assert _divide_by_difference(X1 * X1 - X2 * X2) == (X1 + X2, None)
    f = (X1 - X2) * (X1 * X2 - X1.scale(S_Q))
    assert _divide_by_difference(f) == (X1 * X2 - X1.scale(S_Q), None)
    # the remainder witness of x1^2 + x2 is its value at x1 = x2
    g = X1 * X1 + X2
    quo, rem = _divide_by_difference(g)
    assert rem == X2 * X2 + X2
    assert quo * (X1 - X2) + rem == g


def test_substitute_examples():
    f = X1 * X2
    assert f.substitute({1: qt_monomial(2, 0)}) == X1.scale(qt_monomial(2, 0))
    # the degree-one shifted power sum evaluated at (q, 1, ..., 1)
    N = 3
    sp = VarSpace.z(N)
    pstar1 = MultiPoly.zero(sp)
    for i in range(N):
        pstar1 = pstar1 + (MultiPoly.variable(sp, i)
                           - MultiPoly.one(sp)).scale(t_pow(i))
    value = pstar1.substitute({0: q_pow(1), 1: S_ONE, 2: S_ONE})
    assert value == MultiPoly.constant(sp, S_Q - 1)
    # hyperplane restriction
    xy = VarSpace.xy(1, 1)
    h = MultiPoly.variable(xy, 0) - MultiPoly.variable(xy, 1)
    assert h.substitute({1: (0, S_ONE)}).is_zero()


def _evaluate_term_by_term(f, point):
    total = S_ZERO
    for e, c in f.terms.items():
        v = c
        for x, k in zip(point, e):
            v = v * x ** k
        total = total + v
    return total


def test_evaluate_matches_term_by_term_sum():
    q_over_t = S_Q / S_T
    w = (S_ONE - S_Q).inverse()
    mixed = ((X1 * X1).scale(w) + (X1 * X2).scale((1 + S_T) / (S_T - S_Q))
             + X2.scale(q_over_t) + MultiPoly.constant(Z2, S_T / (1 + S_Q)))
    # the summands share a denominator that cancels at (1, 1): the sum is 1
    cancelling = X1.scale(w) - X2.scale(S_Q * w)
    polys = [mixed, cancelling, MultiPoly.zero(Z2),
             MultiPoly.constant(Z2, S_T / (1 + S_Q)), X1 - X2]
    points = [[q_over_t, w], [S_ONE, S_ONE], [S_Q, S_T * S_T], [w, q_over_t]]
    for f in polys:
        for point in points:
            assert f.evaluate(point) == _evaluate_term_by_term(f, point)
    assert cancelling.evaluate([S_ONE, S_ONE]) == S_ONE
    assert MultiPoly.zero(Z2).evaluate([q_over_t, w]) == S_ZERO
    assert MultiPoly.constant(Z2, w).evaluate([S_Q, S_T]) == w


def test_shift_examples():
    f = X1 * X1 * X2
    assert f.shift_variable(0, S_Q) == f.scale(qt_monomial(2, 0))
    c = MultiPoly.constant(Z2, S_T)
    assert c.shift_variable(1, S_T) == c
    xy = VarSpace.xy(1, 1)
    xyprod = MultiPoly.variable(xy, 0) * MultiPoly.variable(xy, 1)
    assert xyprod.shift_variable(0, S_Q).shift_variable(1, S_T) \
        == xyprod.scale(S_Q * S_T)


def test_symmetry_examples():
    assert (X1 + X2).is_symmetric("all")
    assert not (X1 - X2).is_symmetric("all")
    xy = VarSpace.xy(2, 1)
    x1, x2, y1 = (MultiPoly.variable(xy, i) for i in range(3))
    f = x1 * y1 + x2 * y1
    assert f.is_symmetric("x") and f.is_symmetric("y")


def test_leading_exponents():
    f = X1 * X2 * X2 + X1 * X1
    assert f.leading_exponent("grlex") == (1, 2)
    assert f.leading_exponent("lex") == (2, 0)


coeff_scalars = st.builds(
    QTScalar.from_int, st.integers(min_value=-3, max_value=3))


@st.composite
def polys(draw, space=Z2, max_deg=3):
    n = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n):
        e = tuple(draw(st.integers(min_value=0, max_value=max_deg))
                  for _ in range(space.dim))
        c = draw(coeff_scalars)
        terms[e] = c
    return MultiPoly(space, terms)


@settings(max_examples=50, deadline=None)
@given(polys(), polys())
def test_substitute_is_homomorphism(f, g):
    bindings = {0: qt_monomial(1, 0), 1: (1, S_T)}
    assert (f * g).substitute(bindings) == f.substitute(bindings) * g.substitute(bindings)
    assert (f + g).substitute(bindings) == f.substitute(bindings) + g.substitute(bindings)


@settings(max_examples=50, deadline=None)
@given(polys())
def test_shift_inverse_round_trip(f):
    tinv = t_pow(1).inverse()
    assert f.shift_variable(0, S_T).shift_variable(0, tinv) == f


@settings(max_examples=50, deadline=None)
@given(polys())
def test_swap_difference_divisible(f):
    diff = f.swap_variables(0, 1) - f
    quo, rem = _divide_by_difference(diff)
    assert rem is None
    assert quo * (X1 - X2) == diff
