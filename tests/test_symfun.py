"""Bases, conversions, the restriction homomorphisms, and their identities."""

from fractions import Fraction

import pytest

from macrui import partitions as pt
from macrui.errors import NotSymmetricError, SingularSystemError
from macrui.linalg import vectors_rank
from macrui.macdonald import macdonald_p_expansion, macdonald_polynomial
from macrui.polyring import MultiPoly, VarSpace
from macrui.scalar import (QTScalar, S_ONE, S_Q, S_T, one_minus_q,
                           one_minus_t, q_pow, qt_eval, qt_monomial, qt_ratio,
                           t_pow)
from macrui.shifted import evaluate_at_partition, interpolation_polynomial
from macrui.symfun import (SymExpansion, deformed_newton_sum, from_monomial_expansion,
                           from_shifted_power_expansion, in_deformed_algebra, is_shifted_symmetric,
                           monomial_symmetric, monomial_to_power_expansion,
                           power_sum, power_sum_product, qt_ratio_automorphism,
                           restrict_p_expansion, restrict_shifted_expansion,
                           shifted_power_sum, to_monomial_expansion,
                           to_shifted_power_expansion)


def test_expansion_refuses_non_scalar_coefficients():
    for bad in (0.5, Fraction(1, 2)):
        with pytest.raises(ValueError, match="a scalar must be"):
            SymExpansion("m", 2, {(1,): bad})
    assert SymExpansion("m", 2, {(1,): 1}).get((1,)) == S_ONE


def test_monomial_symmetric_examples():
    sp = VarSpace.z(2)
    x1, x2 = MultiPoly.variable(sp, 0), MultiPoly.variable(sp, 1)
    assert monomial_symmetric((1,), 2) == x1 + x2
    assert monomial_symmetric((1, 1), 2) == x1 * x2
    assert len(monomial_symmetric((2, 1), 3).terms) == 6
    with pytest.raises(ValueError):
        monomial_symmetric((1, 1, 1), 2)


def test_power_sum_examples():
    sp = VarSpace.z(2)
    x1, x2 = MultiPoly.variable(sp, 0), MultiPoly.variable(sp, 1)
    assert power_sum_product((2,), 2) == x1 * x1 + x2 * x2
    assert power_sum_product((1, 1), 1) == MultiPoly.variable(VarSpace.z(1), 0) ** 2
    assert power_sum_product((), 2) == MultiPoly.one(sp)


def test_monomial_expansion_examples():
    e = to_monomial_expansion(power_sum(2, 2))
    assert e.coeffs == {(2,): S_ONE}
    e = to_monomial_expansion(power_sum(1, 2) ** 2)
    assert e.coeffs == {(2,): S_ONE, (1, 1): QTScalar.from_int(2)}
    sp = VarSpace.z(2)
    with pytest.raises(NotSymmetricError):
        to_monomial_expansion(MultiPoly.variable(sp, 0) - MultiPoly.variable(sp, 1))


def test_monomial_expansion_round_trip():
    for d in range(4):
        for lam in pt.partitions_of(d):
            P = macdonald_polynomial(lam, 3)
            assert from_monomial_expansion(to_monomial_expansion(P)) == P


def test_monomial_rendering_refuses_other_bases():
    # the keys of a p- or p*-expansion are not monomials: p_11 must not render as z1*z2
    for basis in ("p", "pstar"):
        with pytest.raises(ValueError, match="expected an m-expansion"):
            from_monomial_expansion(SymExpansion(basis, 2, {(1, 1): S_ONE}))


def test_monomial_to_power_examples():
    half = QTScalar.from_fraction(Fraction(1, 2))
    e = monomial_to_power_expansion(to_monomial_expansion(monomial_symmetric((1, 1), 2)))
    assert e.coeffs == {(2,): -half, (1, 1): half}
    e = monomial_to_power_expansion(to_monomial_expansion(monomial_symmetric((1,), 2)))
    assert e.coeffs == {(1,): S_ONE}
    e = monomial_to_power_expansion(to_monomial_expansion(monomial_symmetric((2,), 2)))
    assert e.coeffs == {(2,): S_ONE}
    with pytest.raises(SingularSystemError):
        monomial_to_power_expansion(to_monomial_expansion(monomial_symmetric((1, 1), 2)
                                                          * monomial_symmetric((1,), 2)))


def test_ratio_automorphism_examples():
    e = qt_ratio_automorphism(SymExpansion("p", 3, {(1,): S_ONE}))
    assert e.coeffs == {(1,): qt_ratio(1)}
    e = qt_ratio_automorphism(SymExpansion("p", 3, {(): S_ONE}))
    assert e.coeffs == {(): S_ONE}
    e = qt_ratio_automorphism(SymExpansion("p", 3, {(2, 1): S_ONE}))
    assert e.coeffs == {(2, 1): qt_ratio(2) * qt_ratio(1)}


def test_deformed_newton_examples():
    sp = VarSpace.xy(1, 1)
    x, y = MultiPoly.variable(sp, 0), MultiPoly.variable(sp, 1)
    assert deformed_newton_sum(1, 1, 1) == x + y.scale(qt_ratio(1))
    sp01 = VarSpace.xy(0, 1)
    y1 = MultiPoly.variable(sp01, 0)
    assert deformed_newton_sum(2, 0, 1) == (y1 ** 2).scale(qt_ratio(2))
    sp20 = VarSpace.xy(2, 0)
    assert deformed_newton_sum(1, 2, 0) == (MultiPoly.variable(sp20, 0)
                                            + MultiPoly.variable(sp20, 1))


def test_restriction_examples():
    sp = VarSpace.xy(1, 1)
    x, y = MultiPoly.variable(sp, 0), MultiPoly.variable(sp, 1)
    # the two smallest shapes, through the power-sum route
    assert restrict_p_expansion(macdonald_p_expansion((1,)), 1, 1) \
        == x + y.scale(qt_ratio(1))
    alpha = qt_ratio(1)
    beta = one_minus_q() * (S_T - S_Q) / (one_minus_t() * (S_ONE - S_T * S_T))
    assert restrict_p_expansion(macdonald_p_expansion((1, 1)), 1, 1) \
        == (x * y).scale(alpha) + (y ** 2).scale(beta)
    assert restrict_p_expansion(macdonald_p_expansion((2, 2)), 1, 1).is_zero()


def _newton_sum_restriction(e, n, m):
    """Reference image: sum of c_mu prod_k deformed_newton_sum(mu_k, n, m)."""
    space = VarSpace.xy(n, m)
    out = MultiPoly.zero(space)
    for mu, c in e.coeffs.items():
        term = MultiPoly.one(space)
        for k in mu:
            term = term * deformed_newton_sum(k, n, m)
        out = out + term.scale(c)
    return out


def test_restriction_matches_newton_sum_reference():
    expansions = [SymExpansion("p", 0, {}), SymExpansion("p", 0, {(): S_ONE}),
                  SymExpansion("p", 0, {(): qt_ratio(2)})]
    for d in range(1, 5):
        for mu in pt.partitions_of(d):
            expansions.append(SymExpansion("p", d, {mu: S_ONE}))
    for d in range(5):
        for lam in pt.partitions_of(d):
            expansions.append(macdonald_p_expansion(lam))
    for (n, m) in [(1, 1), (2, 1), (1, 2), (2, 2), (0, 2), (3, 0)]:
        for e in expansions:
            assert restrict_p_expansion(e, n, m) == _newton_sum_restriction(e, n, m), \
                (e, n, m)


def _shifted_newton_image(r, n, m):
    """Image of p*_r: sum_i (x_i^r - 1) t^{r(i-1)}
    + ((1-q^r)/(1-t^r)) sum_j (y_j^r - t^{rn}) q^{r(j-1)}."""
    space = VarSpace.xy(n, m)
    out = MultiPoly.zero(space)
    for i in range(n):
        w = t_pow(r * i)
        e = [0] * space.dim
        e[i] = r
        out = out + MultiPoly._raw(space, {tuple(e): w}) - MultiPoly.constant(space, w)
    tn = t_pow(r * n)
    for j in range(m):
        w = q_pow(r * j) * qt_ratio(r)
        e = [0] * space.dim
        e[n + j] = r
        out = out + MultiPoly._raw(space, {tuple(e): w}) - MultiPoly.constant(space, w * tn)
    return out


def _shifted_newton_sum_restriction(e, n, m):
    """Reference image: sum of c_mu prod_k (image of p*_{mu_k})."""
    space = VarSpace.xy(n, m)
    out = MultiPoly.zero(space)
    for mu, c in e.coeffs.items():
        term = MultiPoly.one(space)
        for k in mu:
            term = term * _shifted_newton_image(k, n, m)
        out = out + term.scale(c)
    return out


def test_shifted_restriction_matches_newton_sum_reference():
    expansions = [SymExpansion("pstar", 0, {}),
                  SymExpansion("pstar", 0, {(): qt_ratio(2)})]
    for d in range(1, 5):
        for mu in pt.partitions_of(d):
            expansions.append(SymExpansion("pstar", d, {mu: S_ONE}))
    for d in range(5):
        for lam in pt.partitions_of(d):
            N = max(d, 1)
            expansions.append(to_shifted_power_expansion(interpolation_polynomial(lam, N)))
    for (n, m) in [(1, 1), (2, 1), (1, 2), (2, 2), (0, 2), (3, 0)]:
        for e in expansions:
            assert restrict_shifted_expansion(e, n, m) \
                == _shifted_newton_sum_restriction(e, n, m), (e, n, m)


def test_membership_examples():
    sp = VarSpace.xy(1, 1)
    x, y = MultiPoly.variable(sp, 0), MultiPoly.variable(sp, 1)
    assert in_deformed_algebra(x + y.scale(qt_ratio(1)))
    assert not in_deformed_algebra(x + y)
    assert in_deformed_algebra(MultiPoly.constant(sp, S_Q * S_T))


def test_membership_of_restriction_images():
    for (n, m) in [(1, 1), (2, 2)]:
        for mu in [(1,), (2,), (2, 1), (1, 1, 1), (3, 1)]:
            e = SymExpansion("p", 4, {mu: S_Q + 1, (1,): S_T})
            assert in_deformed_algebra(restrict_p_expansion(e, n, m))


def test_shifted_power_sum_examples():
    sp = VarSpace.z(2)
    x1, x2 = MultiPoly.variable(sp, 0), MultiPoly.variable(sp, 1)
    assert shifted_power_sum(1, 2) == (x1 - 1) + (x2 - 1).scale(S_T)
    assert evaluate_at_partition(shifted_power_sum(1, 2), ()).is_zero()
    sp1 = VarSpace.z(1)
    assert shifted_power_sum(2, 1) == MultiPoly.variable(sp1, 0) ** 2 - 1


def test_generators_refuse_r_below_one():
    for r in (0, -1):
        with pytest.raises(ValueError, match="^power sums need r >= 1$"):
            power_sum(r, 2)
        with pytest.raises(ValueError, match="^shifted power sums need r >= 1$"):
            shifted_power_sum(r, 2)
        with pytest.raises(ValueError, match="^power sums need r >= 1$"):
            deformed_newton_sum(r, 1, 1)


def test_shifted_rendering_refuses_other_bases():
    for basis in ("m", "p"):
        with pytest.raises(ValueError, match="expected a p\\*-expansion"):
            from_shifted_power_expansion(SymExpansion(basis, 2, {(1, 1): S_ONE}), 2)


def test_shifted_expansion_examples():
    p1 = shifted_power_sum(1, 2)
    assert to_shifted_power_expansion(p1).coeffs == {(1,): S_ONE}
    assert to_shifted_power_expansion(p1 * p1).coeffs == {(1, 1): S_ONE}
    c = MultiPoly.constant(VarSpace.z(2), S_Q - S_T)
    assert to_shifted_power_expansion(c).coeffs == {(): S_Q - S_T}
    with pytest.raises(NotSymmetricError):
        to_shifted_power_expansion(MultiPoly.variable(VarSpace.z(2), 0))


def test_shifted_restriction_examples():
    sp = VarSpace.xy(1, 1)
    x, y = MultiPoly.variable(sp, 0), MultiPoly.variable(sp, 1)
    img = restrict_shifted_expansion(SymExpansion("pstar", 1, {(1,): S_ONE}), 1, 1)
    assert img == (x - 1) + (y - MultiPoly.constant(sp, S_T)).scale(qt_ratio(1))
    img = restrict_shifted_expansion(SymExpansion("pstar", 1, {(): S_Q}), 1, 1)
    assert img == MultiPoly.constant(sp, S_Q)
    sp12 = VarSpace.xy(1, 2)
    x1, y1, y2 = (MultiPoly.variable(sp12, i) for i in range(3))
    t2 = MultiPoly.constant(sp12, t_pow(2))
    img = restrict_shifted_expansion(SymExpansion("pstar", 1, {(2,): S_ONE}), 1, 2)
    expect = (x1 ** 2 - 1) + ((y1 ** 2 - t2)
                              + (y2 ** 2 - t2).scale(qt_monomial(2, 0))).scale(qt_ratio(2))
    assert img == expect


def test_monomial_and_power_stability():
    # sending the trailing variables to zero fixes every coefficient
    for lam in [(1,), (2, 1), (2, 2), (3, 1, 1)]:
        for N in range(len(lam), 7):
            e = to_monomial_expansion(monomial_symmetric(lam, N))
            assert e.coeffs == {lam: S_ONE}
    for mu in [(2,), (2, 1), (1, 1, 1)]:
        d = pt.weight(mu)
        for N in range(d, 7):
            e = monomial_to_power_expansion(
                to_monomial_expansion(power_sum_product(mu, N)))
            assert e.coeffs == {mu: S_ONE}


def test_shifted_stability():
    # sending the trailing variables to one fixes the shifted power sums
    for r in (1, 2, 3):
        for N in (2, 3, 4):
            for M in range(1, N):
                f = shifted_power_sum(r, N)
                bindings = {i: S_ONE for i in range(M, N)}
                g = f.substitute(bindings)
                expect = shifted_power_sum(r, M)
                lifted = MultiPoly(VarSpace.z(N),
                                   {e + (0,) * (N - M): c
                                    for e, c in expect.terms.items()})
                assert g == lifted


def test_conjugation_evaluation_correspondence():
    # evaluating the shifted sum at q-powers of the conjugate shape matches
    # the ratio times the parameter-swapped sum at t-powers of the shape
    for d in range(6):
        for lam in pt.partitions_of(d):
            for r in (1, 2, 3):
                N = max(d, 1)
                ps = shifted_power_sum(r, N)
                lhs = evaluate_at_partition(ps, pt.conjugate(lam))
                t_point = [t_pow(pt.part(lam, i + 1)) for i in range(N)]
                rhs = qt_ratio(r) * ps.swap_parameters().evaluate(t_point)
                assert lhs == rhs


def test_p_expansion_stability_recheck():
    # the expansion solved at N = |lam| against the rendered polynomial at |lam| + 1
    for lam in [(2,), (2, 1), (1, 1, 1), (3, 1)] + pt.partitions_of(4):
        d = pt.weight(lam)
        rendered = monomial_to_power_expansion(
            to_monomial_expansion(macdonald_polynomial(lam, d + 1)))
        assert macdonald_p_expansion(lam).coeffs == rendered.coeffs


def test_special_point_kills_newton_sums():
    for r in range(1, 7):
        p = deformed_newton_sum(r, 1, 1)
        v = p.evaluate([QTScalar.from_int(1), QTScalar.from_int(2)])
        assert qt_eval(v, Fraction(1, 2), 2) == 0


def test_generation_dimension_by_degree():
    # the images of degree-d power-sum monomials span a space of dimension
    # equal to the number of fat-hook shapes of weight d
    for d in range(1, 6):
        vecs = []
        for mu in pt.partitions_of(d):
            img = restrict_p_expansion(SymExpansion("p", d, {mu: S_ONE}), 1, 1)
            vecs.append(img.terms)
        expected = len(pt.partitions_of(d, fat_hook=(1, 1)))
        assert vectors_rank(vecs) == expected


def test_is_shifted_symmetric():
    assert is_shifted_symmetric(shifted_power_sum(2, 3))
    assert is_shifted_symmetric(MultiPoly.one(VarSpace.z(2)))
    assert not is_shifted_symmetric(power_sum(1, 2))
