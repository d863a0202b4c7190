"""Acceptance criteria, one test per criterion, all exact (tolerance zero).

Every check is an identity in the rational-function field in q and t at
desk scale: weights up to 4 or 5, up to 5 variables, alphabet sizes up to
(2, 2).  Each test prints a single PASS line on success so the suite output
doubles as the acceptance report.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

from macrui import partitions as pt
from macrui.linalg import vectors_rank
from macrui.macdonald import (macdonald_polynomial, parameter_duality_sign,
                              super_macdonald, super_tableau_sum)
from macrui.operators import (apply_deformed_mr, apply_mr, cherednik_dunkl,
                              coefficient_sum_identity, hecke_T,
                              mr_eigenvalue, operator_from_shifted_symmetric)
from macrui.polyring import MultiPoly, VarSpace
from macrui.scalar import QTScalar, S_ONE, S_T, one_minus_q, qt_eval
from macrui.shifted import (duality_check, evaluate_at_partition,
                            interpolation_by_branching,
                            interpolation_polynomial,
                            shifted_super_macdonald,
                            shifted_super_tableau_sum)
from macrui.symfun import (SymExpansion, deformed_newton_sum,
                           monomial_symmetric, monomial_to_power_expansion,
                           power_sum_product, restrict_p_expansion,
                           shifted_power_sum, to_monomial_expansion)
from macrui.verify import (_log_coefficient_identity,
                           _truncated_kernel_function_identity)

from test_tableau_reference import reference_interpolation_sum


def report(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def test_criterion_01_eigenfunctions():
    """Every shape of weight <= 5 gives an exact eigenfunction at N = 5."""
    N = 5
    count = 0
    for d in range(6):
        for lam in pt.partitions_of(d, max_length=N):
            P = macdonald_polynomial(lam, N)
            assert apply_mr(P) == P.scale(mr_eigenvalue(lam)), lam
            count += 1
    report(1, f"(eigenfunction relation, {count} shapes, N={N})")


def test_criterion_02_triangularity():
    """The operator matrix on monomials is dominance-triangular with the
    stated diagonal."""
    N = 5
    count = 0
    for d in range(1, 6):
        for lam in pt.partitions_of(d, max_length=N):
            exp = to_monomial_expansion(apply_mr(monomial_symmetric(lam, N)))
            for mu in exp.coeffs:
                assert pt.dominance_leq(mu, lam), (lam, mu)
            assert exp.coeffs.get(lam) == mr_eigenvalue(lam), lam
            count += 1
    report(2, f"(triangularity with diagonal eigenvalues, {count} shapes)")


def test_criterion_03_restriction_intertwines():
    """The restriction homomorphism intertwines the two operators on all
    power-sum products of weight <= 4, alphabets up to (2, 2)."""
    count = 0
    for (n, m) in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        for d in range(1, 5):
            for mu in pt.partitions_of(d):
                pmu = power_sum_product(mu, d)
                lhs = restrict_p_expansion(
                    monomial_to_power_expansion(
                        to_monomial_expansion(apply_mr(pmu))), n, m)
                rhs = apply_deformed_mr(
                    restrict_p_expansion(SymExpansion("p", d, {mu: S_ONE}), n, m))
                assert lhs == rhs, (mu, n, m)
                count += 1
    report(3, f"(operator restriction diagram, {count} instances)")


def test_criterion_04_kernel_and_rank():
    """Restriction kills exactly the off-hook shapes; the survivors are
    independent with full rank per degree."""
    for (n, m) in [(1, 1), (2, 1)]:
        for d in range(6):
            vecs = []
            expected = 0
            for lam in pt.partitions_of(d):
                S = super_macdonald(lam, n, m)
                inside = pt.in_fat_hook(lam, n, m)
                assert S.is_zero() == (not inside), (lam, n, m)
                if inside:
                    expected += 1
                    vecs.append(S.terms)
            assert vectors_rank(vecs) == expected, (d, n, m)
    # the worked count: 4 of the 5 weight-4 shapes survive at (1, 1)
    assert len(pt.partitions_of(4, fat_hook=(1, 1))) == 4
    report(4, "(kernel = off-hook shapes, full rank per degree, (1,1) and (2,1))")


def test_criterion_05_deformed_eigenfunctions():
    count = 0
    for (n, m) in [(1, 1), (2, 1), (1, 2)]:
        for d in range(5):
            for lam in pt.partitions_of(d, fat_hook=(n, m)):
                S = super_macdonald(lam, n, m)
                assert apply_deformed_mr(S) == S.scale(mr_eigenvalue(lam)), (lam, n, m)
                count += 1
    report(5, f"(deformed eigenfunction relation, {count} instances)")


def test_criterion_06_interpolation_triple_and_vanishing():
    """Vanishing solve, branching recursion, and tableau sum agree at
    weight <= 4 and N = 4; normalization and extra vanishing hold."""
    N = 4
    for d in range(5):
        for lam in pt.partitions_of(d, max_length=N):
            v = interpolation_polynomial(lam, N)
            assert interpolation_by_branching(lam, N) == v, lam
            assert reference_interpolation_sum(lam, N) == v, lam
            assert evaluate_at_partition(v, lam) == pt.hook_product(lam), lam
    for d in range(4):
        for lam in pt.partitions_of(d):
            for dd in range(d + 3):
                for mu in pt.partitions_of(dd):
                    if pt.contains(lam, mu):
                        continue
                    NN = max(d, len(mu), 1)
                    val = evaluate_at_partition(
                        interpolation_polynomial(lam, NN), mu)
                    assert val.is_zero(), (lam, mu)
    report(6, "(triple agreement, hook normalization, extra vanishing)")


def test_criterion_07_duality():
    shapes = [lam for d in range(4) for lam in pt.partitions_of(d)]
    for lam in shapes:
        for mu in shapes:
            assert duality_check(lam, mu), (lam, mu)
    report(7, f"(evaluation duality, {len(shapes) ** 2} pairs)")


def test_criterion_08_combinatorial_formulas():
    """Bitableau sums agree with the restriction routes; the measured sign
    convention is the identity (+1 for every shape), a single global
    convention rather than a per-shape pattern."""
    count = 0
    for (n, m) in [(1, 1), (2, 1)]:
        for d in range(5):
            for lam in pt.partitions_of(d, fat_hook=(n, m)):
                assert super_tableau_sum(lam, n, m) \
                    == super_macdonald(lam, n, m), (lam, n, m)
                assert shifted_super_tableau_sum(lam, n, m) \
                    == shifted_super_macdonald(lam, n, m), (lam, n, m)
                count += 1
    for d in range(5):
        for lam in pt.partitions_of(d):
            assert parameter_duality_sign(lam) == 1, lam
    report(8, f"(tableau formulas, {count} shapes; measured sign = +1 throughout)")


def test_criterion_09_hecke_and_commuting_operators():
    dmax = 3
    for N in (2, 3):
        sp = VarSpace.z(N)
        mons = []
        for d in range(dmax + 1):
            for combo in combinations_with_replacement(range(N), d):
                e = [0] * N
                for i in combo:
                    e[i] += 1
                mons.append(MultiPoly._raw(sp, {tuple(e): S_ONE}))
        for f in mons:
            for i in range(1, N):
                tf = hecke_T(f, i)
                assert (hecke_T(tf, i) - tf.scale(S_ONE - S_T)
                        - f.scale(S_T)).is_zero()
            for i in range(1, N + 1):
                for j in range(i + 1, N + 1):
                    assert cherednik_dunkl(cherednik_dunkl(f, j), i) \
                        == cherednik_dunkl(cherednik_dunkl(f, i), j)
        for d in range(dmax + 1):
            for lam in pt.partitions_of(d, max_length=N):
                mlam = monomial_symmetric(lam, N)
                lhs = operator_from_shifted_symmetric(shifted_power_sum(1, N), mlam)
                assert lhs == apply_mr(mlam).scale(one_minus_q()), (lam, N)
    report(9, "(Hecke quadratic, commutativity, first-integral correspondence)")


def test_criterion_10_identity_suite():
    for n in range(4):
        for m in range(4):
            if n + m >= 1:
                assert coefficient_sum_identity(n, m), (n, m)
    ok, witness = _truncated_kernel_function_identity()
    assert ok, witness
    for (n, m) in [(1, 1), (2, 1)]:
        for s in range(1, 5):
            ok, witness = _log_coefficient_identity(s, n, m)
            assert ok, (s, n, m, witness)
    for d in range(7):
        for lam in pt.partitions_of(d):
            lhs, rhs = pt.conjugation_sum_identity(lam)
            assert lhs == rhs, lam
    for r in range(1, 7):
        p = deformed_newton_sum(r, 1, 1)
        v = p.evaluate([QTScalar.from_int(1), QTScalar.from_int(2)])
        assert qt_eval(v, Fraction(1, 2), 2) == 0, r
    report(10, "(coefficient sums, kernel-function identities, diagram trace, "
               "special-point vanishing)")
