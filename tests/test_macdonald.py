"""Construction, branching, tableau formulas, and two-alphabet restrictions."""

import pytest

from macrui import partitions as pt
from macrui.errors import InvalidPartitionError
from macrui.linalg import vectors_rank
from macrui import macdonald, operators
from macrui.macdonald import (branching_coefficients, macdonald_m_expansion,
                              macdonald_p_expansion, macdonald_polynomial,
                              macdonald_tableau_sum, parameter_duality_sign,
                              skew_tableau_sum, super_macdonald,
                              super_tableau_sum)
from macrui.operators import apply_deformed_mr, mr_eigenvalue
from macrui.polyring import MultiPoly, VarSpace
from macrui.scalar import S_ONE, S_Q, S_T, S_ZERO, qt_ratio
from macrui.symfun import monomial_symmetric, to_monomial_expansion

from test_tableau_reference import reverse_tableaux


def test_column_shapes_are_monomial():
    for k in (1, 2, 3):
        lam = (1,) * k
        assert macdonald_polynomial(lam, 3) == monomial_symmetric(lam, 3)


def test_hand_checked_shape():
    u = (1 + S_Q) * (S_T - 1) / (S_T - S_Q)
    expect = monomial_symmetric((2,), 2) + monomial_symmetric((1, 1), 2).scale(u)
    assert macdonald_polynomial((2,), 2) == expect
    assert macdonald_polynomial((1,), 3) == monomial_symmetric((1,), 3)
    with pytest.raises(InvalidPartitionError):
        macdonald_polynomial((1, 1), 1)


def test_non_integer_shape_is_refused_not_truncated():
    # (2.5,) used to be read as (2,)
    with pytest.raises(InvalidPartitionError, match="must be integers"):
        macdonald_polynomial((2.5,), 2)


def test_branching_examples():
    bc = branching_coefficients((1,))
    assert bc == {(1,): S_ONE, (): S_ONE}
    bc = branching_coefficients((1, 1))
    assert bc[(1,)] == S_ONE
    u = (1 + S_Q) * (S_T - 1) / (S_T - S_Q)
    assert branching_coefficients((2,))[(1,)] == u


def test_branching_reassembles_polynomial():
    for d in range(6):
        for lam in pt.partitions_of(d):
            N = len(lam) + 1
            P = macdonald_polynomial(lam, N)
            space = P.space
            total = MultiPoly.zero(space)
            for mu, psi in branching_coefficients(lam).items():
                if len(mu) > N - 1:
                    continue
                tail = macdonald_polynomial(mu, N - 1)
                lifted = MultiPoly(space, {(0,) + e: c for e, c in tail.terms.items()})
                a = pt.weight(lam) - pt.weight(mu)
                z1pow = MultiPoly.variable(space, 0, a) if a else MultiPoly.one(space)
                total = total + (z1pow * lifted).scale(psi)
            assert total == P


def _branching_by_rendering(lam):
    """The branching weights read from P_lam rendered in l(lam) + 1 variables:
    each z1-slice is expanded in monomials, and the P_mu are peeled off it
    from the dominance-highest strip down."""
    if not lam:
        return {(): S_ONE}
    N = len(lam) + 1
    by_power = {}
    for e, c in macdonald_polynomial(lam, N).terms.items():
        by_power.setdefault(e[0], {})[e[1:]] = c
    strips = pt.horizontal_strips_below(lam)
    out = {mu: S_ZERO for mu in strips}
    for a, terms in by_power.items():
        expr = dict(to_monomial_expansion(MultiPoly(VarSpace.z(N - 1), terms)).coeffs)
        for mu in sorted((mu for mu in strips if pt.weight(lam) - pt.weight(mu) == a),
                         reverse=True):
            psi = out[mu] = expr.pop(mu, S_ZERO)
            for nu, c in macdonald_m_expansion(mu, N - 1).items():
                if nu != mu:
                    expr[nu] = expr.get(nu, S_ZERO) - psi * c
        assert all(c.is_zero() for c in expr.values()), (lam, a)
    return out


def test_closed_form_branching_matches_rendering():
    # the closed form psi against the weights peeled off P_lam rendered in
    # l(lam) + 1 variables; the library's P_lam is Macdonald's P_lam(x; q, 1/t)
    pairs = 0
    for d in range(8):
        for lam in pt.partitions_of(d):
            reference = _branching_by_rendering(lam)
            assert branching_coefficients(lam) == reference, lam
            pairs += len(reference)
    assert pairs == 249


def test_branching_does_not_use_the_construction(monkeypatch):
    def refuse(*args):
        raise AssertionError("branching reached the construction")

    macdonald._branching_coefficients.cache_clear()
    macdonald._strip_sum.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(macdonald, "macdonald_m_expansion", refuse)
            patch.setattr(macdonald, "_macdonald_m_expansion", refuse)
            patch.setattr(operators, "apply_mr_detailed", refuse)
            for lam in pt.partitions_of(5):
                branching_coefficients(lam)
            tableau = macdonald_tableau_sum((3, 1), 3)
        assert tableau == macdonald_polynomial((3, 1), 3)
    finally:
        macdonald._branching_coefficients.cache_clear()


def test_m_expansion_applies_the_operator_only_below_lam(monkeypatch):
    # every partition of the weight was applied: 22 images at weight 8
    applied = []

    def counted(f):
        applied.append(f)
        return operators.apply_mr(f)

    monkeypatch.setattr(macdonald, "apply_mr", counted)
    for lam, images in [((1,) * 8, 1), ((2, 2, 2, 2), 5), ((2, 2, 2), 4), ((3, 3), 7)]:
        macdonald._macdonald_m_expansion.cache_clear()
        macdonald._mr_monomial_expansion.cache_clear()
        applied.clear()
        macdonald_m_expansion(lam, pt.weight(lam))
        assert len(applied) == images, lam


def test_m_expansion_truncates_in_the_variable_count():
    for d in range(6):
        for lam in pt.partitions_of(d):
            full = macdonald_m_expansion(lam, d)
            for N in range(len(lam), d):
                truncated = {mu: c for mu, c in full.items() if len(mu) <= N}
                assert macdonald_m_expansion(lam, N) == truncated, (lam, N)


def test_m_expansion_above_the_weight_equals_the_direct_solve():
    # every N >= |lam| shares the solve at N = |lam|; the triangular solve
    # with the operator in N variables gives the same coefficients
    for d in range(5):
        for lam in pt.partitions_of(d):
            for N in (d + 1, d + 2):
                direct = macdonald._macdonald_m_expansion(lam, N)
                assert macdonald_m_expansion(lam, N) == direct, (lam, N)
    with pytest.raises(InvalidPartitionError):
        macdonald_m_expansion((2, 1, 1), 2)


def test_tableau_sum_examples():
    sp = VarSpace.z(2)
    assert macdonald_tableau_sum((1,), 2) == (MultiPoly.variable(sp, 0)
                                              + MultiPoly.variable(sp, 1))
    assert macdonald_tableau_sum((2,), 2) == macdonald_polynomial((2,), 2)
    assert macdonald_tableau_sum((1, 1), 1).is_zero()


def test_tableau_sum_equals_construction():
    for d in range(6):
        for lam in pt.partitions_of(d, max_length=5):
            assert macdonald_tableau_sum(lam, 5) == macdonald_polynomial(lam, 5)


def test_skew_examples():
    assert skew_tableau_sum((2, 1), (2, 1), 2) == MultiPoly.one(VarSpace.z(2))
    sp1 = VarSpace.z(1)
    assert skew_tableau_sum((1,), (), 1) == MultiPoly.variable(sp1, 0)
    u = (1 + S_Q) * (S_T - 1) / (S_T - S_Q)
    assert skew_tableau_sum((2,), (1,), 1) == MultiPoly.variable(sp1, 0).scale(u)
    with pytest.raises(InvalidPartitionError):
        skew_tableau_sum((1,), (2,), 2)


def test_skew_decomposition_two_plus_two():
    for d in range(5):
        for lam in pt.partitions_of(d, max_length=4):
            P4 = macdonald_polynomial(lam, 4)
            space = P4.space
            total = MultiPoly.zero(space)
            for mu in pt.subpartitions(lam):
                if len(mu) > 2:
                    continue
                skew = skew_tableau_sum(lam, mu, 2)
                tail = macdonald_polynomial(mu, 2)
                skew_l = MultiPoly(space, {e + (0, 0): c for e, c in skew.terms.items()})
                tail_l = MultiPoly(space, {(0, 0) + e: c for e, c in tail.terms.items()})
                total = total + skew_l * tail_l
            assert total == P4


def test_super_examples():
    sp = VarSpace.xy(1, 1)
    x, y = MultiPoly.variable(sp, 0), MultiPoly.variable(sp, 1)
    assert super_macdonald((1,), 1, 1) == x + y.scale(qt_ratio(1))
    assert super_macdonald((2, 2), 1, 1).is_zero()
    assert super_macdonald((1, 1), 1, 1).leading_exponent("lex") == (1, 1)


def test_super_leading_monomial_profile():
    for (n, m) in [(1, 1), (2, 1)]:
        for d in range(1, 5):
            for lam in pt.partitions_of(d, fat_hook=(n, m)):
                S = super_macdonald(lam, n, m)
                lead = S.leading_exponent("lex")
                conj = pt.conjugate(lam)
                expect = tuple(pt.part(lam, i + 1) for i in range(n)) + tuple(
                    max(pt.part(conj, j + 1) - n, 0) for j in range(m))
                assert lead == expect


def test_kernel_and_independence():
    for (n, m) in [(1, 1), (2, 1)]:
        for d in range(5):
            vecs = []
            inside_count = 0
            for lam in pt.partitions_of(d):
                S = super_macdonald(lam, n, m)
                inside = pt.in_fat_hook(lam, n, m)
                assert S.is_zero() == (not inside)
                if inside:
                    inside_count += 1
                    vecs.append(S.terms)
            assert vectors_rank(vecs) == inside_count


def test_super_tableau_examples():
    sp10 = VarSpace.xy(1, 0)
    assert super_tableau_sum((1,), 1, 0) == MultiPoly.variable(sp10, 0)
    sp01 = VarSpace.xy(0, 1)
    assert super_tableau_sum((1,), 0, 1) \
        == MultiPoly.variable(sp01, 0).scale(qt_ratio(1))
    assert super_tableau_sum((1, 1), 1, 1) == super_macdonald((1, 1), 1, 1)
    with pytest.raises(InvalidPartitionError):
        super_tableau_sum((2, 2), 1, 1)


def test_super_tableau_equals_restriction():
    for (n, m) in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        for d in range(5):
            for lam in pt.partitions_of(d, fat_hook=(n, m)):
                assert super_tableau_sum(lam, n, m) == super_macdonald(lam, n, m)


def test_deformed_eigen_relation():
    for (n, m) in [(1, 1), (2, 1), (1, 2)]:
        for d in range(4):
            for lam in pt.partitions_of(d, fat_hook=(n, m)):
                S = super_macdonald(lam, n, m)
                assert apply_deformed_mr(S) == S.scale(mr_eigenvalue(lam))


def test_parameter_duality_sign_is_plus_one():
    for d in range(5):
        for lam in pt.partitions_of(d):
            assert parameter_duality_sign(lam) == 1


def test_tableau_enumeration_counts():
    # single column of height two admits exactly one filling with two letters
    tabs = list(reverse_tableaux((1, 1), 2))
    assert len(tabs) == 1
    assert tabs[0].entries == {(1, 1): 2, (2, 1): 1}


def test_m_to_p_solved_once_per_degree(monkeypatch):
    from macrui import symfun

    macdonald._macdonald_p_expansion.cache_clear()
    symfun._monomial_in_power_matrix.cache_clear()
    calls = []
    solve = symfun.solve_square

    def counted(matrix, columns):
        calls.append((len(matrix), len(columns)))
        return solve(matrix, columns)

    monkeypatch.setattr(symfun, "solve_square", counted)
    for lam in pt.partitions_of(5):
        super_macdonald(lam, 2, 2)
    # one inverse of the p -> m matrix of weight 5, from its unit columns
    assert calls == [(7, 7)]


def test_p_expansion_matches_construction():
    from macrui.symfun import power_sum_product
    for lam in [(2,), (2, 1), (1, 1, 1)]:
        d = pt.weight(lam)
        e = macdonald_p_expansion(lam)
        total = MultiPoly.zero(VarSpace.z(d + 1))
        for mu, c in e.coeffs.items():
            total = total + power_sum_product(mu, d + 1).scale(c)
        assert total == macdonald_polynomial(lam, d + 1)
