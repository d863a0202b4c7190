"""The difference operator, its deformation, Hecke and commuting operators."""

import heapq
import random

import pytest

from macrui import partitions as pt
from macrui.errors import NonDivisibleError, NotSymmetricError
from macrui.macdonald import macdonald_polynomial, super_macdonald
from macrui.operators import (apply_deformed_mr, apply_deformed_mr_detailed,
                              apply_mr, apply_mr_detailed, cherednik_dunkl,
                              coefficient_sum_identity, cycle_shift, hecke_T,
                              hecke_T_inv, mr_eigenvalue,
                              operator_from_shifted_symmetric)
from macrui.polyring import (MultiPoly, VarSpace, _div_difference,
                             _divided_difference, _mul_binomial, _sub_into,
                             _transpose)
from macrui.scalar import (P_ONE, P_Q, P_T, QTPolynomial, QTScalar, S_ONE, S_Q,
                           S_T, one_minus_q, qt_ratio)
from macrui.symfun import (in_deformed_algebra, monomial_symmetric,
                           restrict_p_expansion, shifted_power_sum,
                           to_monomial_expansion)


def test_apply_mr_one_variable():
    sp = VarSpace.z(1)
    z1 = MultiPoly.variable(sp, 0)
    assert apply_mr(z1) == -z1
    assert apply_mr(MultiPoly.constant(sp, S_Q)) == MultiPoly.zero(sp)


def test_apply_mr_eigenfunction_example():
    u = (1 + S_Q) * (S_T - 1) / (S_T - S_Q)
    f = monomial_symmetric((2,), 2) + monomial_symmetric((1, 1), 2).scale(u)
    assert apply_mr(f) == f.scale(-(1 + S_Q))


def test_apply_mr_rejects_asymmetric_input():
    sp = VarSpace.z(2)
    with pytest.raises(NotSymmetricError):
        apply_mr(MultiPoly.variable(sp, 0))


def test_apply_mr_block_order_is_irrelevant():
    # the division by v_a - v_b needs a < b; an unsorted block is sorted
    f = monomial_symmetric((2, 1), 3)
    assert apply_mr(f, block=[2, 1, 0]) == apply_mr(f)
    assert apply_mr(f, block=[2, 0]) == apply_mr(f, block=[0, 2])


def test_mr_eigenvalue_examples():
    assert mr_eigenvalue((1,)) == QTScalar.from_int(-1)
    assert mr_eigenvalue((2,)) == -(1 + S_Q)
    assert mr_eigenvalue((1, 1)) == -(1 + S_T)
    assert mr_eigenvalue(()) == QTScalar.from_int(0)


def test_mr_eigenvalue_matches_its_defining_form():
    # built as the polynomial -sum_i [lam_i]_q t^{i-1}; the definition divides
    # by 1 - q, and the reduced quotient must be the same pair of dicts
    for d in range(9):
        for lam in pt.partitions_of(d):
            num = sum((QTPolynomial.monomial(p, i) - QTPolynomial.monomial(0, i)
                       for i, p in enumerate(lam)), QTPolynomial.from_int(0))
            defining = QTScalar(num, P_ONE - P_Q)
            value = mr_eigenvalue(lam)
            assert value == defining, lam
            assert value.den.terms == P_ONE.terms


def test_deformed_mr_examples():
    sp = VarSpace.xy(1, 1)
    x, y = MultiPoly.variable(sp, 0), MultiPoly.variable(sp, 1)
    f = x + y.scale(qt_ratio(1))
    assert apply_deformed_mr(f) == -f
    assert apply_deformed_mr(MultiPoly.constant(sp, S_T)).is_zero()
    with pytest.raises(NonDivisibleError) as err:
        apply_deformed_mr(x + y)
    assert err.value.remainder is not None
    assert not in_deformed_algebra(x + y)


def test_deformed_mr_empty_blocks_match_one_block_operator():
    # with no y variables the deformed operator is the plain one
    for lam in [(1,), (2,), (2, 1)]:
        f = monomial_symmetric(lam, 2)
        g = MultiPoly(VarSpace.xy(2, 0), dict(f.terms))
        out = apply_deformed_mr(g)
        expect = apply_mr(f)
        assert dict(out.terms) == dict(expect.terms)
    # with no x variables it is the one-block operator with parameters swapped
    for lam in [(1,), (1, 1)]:
        f = monomial_symmetric(lam, 2)
        g = MultiPoly(VarSpace.xy(0, 2), dict(f.terms))
        out = apply_deformed_mr(g)
        expect = apply_mr(f.swap_parameters()).swap_parameters()
        assert dict(out.terms) == dict(expect.terms)


def test_operator_preserves_membership():
    from macrui.macdonald import super_macdonald

    for (n, m) in [(1, 1), (2, 1), (2, 2)]:
        for d in range(1, 5):
            for lam in pt.partitions_of(d, fat_hook=(n, m)):
                img = apply_deformed_mr(super_macdonald(lam, n, m))
                assert in_deformed_algebra(img)


def test_operator_result_witnesses():
    from macrui.macdonald import macdonald_p_expansion

    f = monomial_symmetric((1,), 2)
    res = apply_mr_detailed(f)
    assert res.divisibility_witnesses == ["z1-z2"]
    g = restrict_p_expansion(macdonald_p_expansion((1,)), 1, 1)
    res = apply_deformed_mr_detailed(g)
    assert res.divisibility_witnesses == ["x1-y1"]


def test_coefficient_sum_identity_examples():
    assert coefficient_sum_identity(1, 0)
    assert coefficient_sum_identity(0, 1)
    assert coefficient_sum_identity(1, 1)
    assert coefficient_sum_identity(2, 2)
    with pytest.raises(ValueError):
        coefficient_sum_identity(0, 0)


def test_hecke_examples():
    sp = VarSpace.z(2)
    x1, x2 = MultiPoly.variable(sp, 0), MultiPoly.variable(sp, 1)
    assert hecke_T(x1, 1) == x2.scale(S_T)
    assert hecke_T(x2, 1) == x1 + x2.scale(S_ONE - S_T)
    sym = x1 * x2
    assert hecke_T(sym, 1) == sym
    assert hecke_T_inv(hecke_T(x1, 1), 1) == x1
    assert hecke_T_inv(x2.scale(S_T), 1) == x1
    c = MultiPoly.constant(sp, S_Q)
    assert hecke_T_inv(c, 1) == c


def test_hecke_quadratic_relation():
    for N in (2, 3):
        sp = VarSpace.z(N)
        for lam in pt.partitions_up_to(3):
            if len(lam) > N:
                continue
            f = monomial_symmetric(lam, N) if lam else MultiPoly.one(sp)
            f = f + MultiPoly.variable(sp, 0, 2)  # deliberately asymmetric
            for i in range(1, N):
                tf = hecke_T(f, i)
                assert (hecke_T(tf, i) - tf.scale(S_ONE - S_T) - f.scale(S_T)).is_zero()


def test_cherednik_dunkl_examples():
    sp = VarSpace.z(1)
    x1 = MultiPoly.variable(sp, 0)
    assert cherednik_dunkl(x1, 1) == x1.scale(S_Q)
    assert cherednik_dunkl(MultiPoly.one(sp), 1) == MultiPoly.one(sp)
    sp2 = VarSpace.z(2)
    f = MultiPoly.variable(sp2, 0) * MultiPoly.variable(sp2, 1)
    d1d2 = cherednik_dunkl(cherednik_dunkl(f, 2), 1)
    d2d1 = cherednik_dunkl(cherednik_dunkl(f, 1), 2)
    assert d1d2 == d2d1


def test_cycle_shift_form():
    sp = VarSpace.z(3)
    x1, x2, x3 = (MultiPoly.variable(sp, i) for i in range(3))
    assert cycle_shift(x1) == x3.scale(S_Q)
    assert cycle_shift(x2) == x1
    assert cycle_shift(x3) == x2


def test_operator_from_shifted_symmetric_examples():
    sp = VarSpace.z(1)
    x1 = MultiPoly.variable(sp, 0)
    c = MultiPoly.constant(sp, S_T)
    assert operator_from_shifted_symmetric(c, x1) == x1.scale(S_T)
    out = operator_from_shifted_symmetric(shifted_power_sum(1, 1), x1)
    assert out == x1.scale(S_Q - 1)
    m1 = monomial_symmetric((1,), 2)
    out = operator_from_shifted_symmetric(shifted_power_sum(1, 2), m1)
    assert out == apply_mr(m1).scale(one_minus_q())
    with pytest.raises(NotSymmetricError):
        operator_from_shifted_symmetric(MultiPoly.variable(VarSpace.z(2), 0), m1)


def test_first_integral_correspondence():
    for N in (2, 3):
        for d in range(4):
            for lam in pt.partitions_of(d, max_length=N):
                m = monomial_symmetric(lam, N)
                lhs = operator_from_shifted_symmetric(shifted_power_sum(1, N), m)
                assert lhs == apply_mr(m).scale(one_minus_q())


def test_mr_stability_under_variable_reduction():
    # applying the operator then dropping trailing variables agrees with
    # dropping first and applying the smaller operator
    for N in (2, 3, 4, 5):
        for M in range(1, N):
            for d in range(4):
                for lam in pt.partitions_of(d, max_length=N):
                    big = apply_mr(monomial_symmetric(lam, N))
                    small = (apply_mr(monomial_symmetric(lam, M))
                             if len(lam) <= M else MultiPoly.zero(VarSpace.z(M)))
                    bindings = {i: QTScalar.from_int(0) for i in range(M, N)}
                    reduced = big.substitute(bindings)
                    lifted = MultiPoly(VarSpace.z(N),
                                       {e + (0,) * (N - M): c
                                        for e, c in small.terms.items()})
                    assert reduced == lifted


def test_triangularity_small():
    N = 4
    for d in range(1, 5):
        for lam in pt.partitions_of(d, max_length=N):
            exp = to_monomial_expansion(apply_mr(monomial_symmetric(lam, N)))
            for mu in exp.coeffs:
                assert pt.dominance_leq(mu, lam)
            assert exp.coeffs.get(lam) == mr_eigenvalue(lam)


def test_eigen_relation_at_minimal_variable_count():
    for d in range(6):
        for lam in pt.partitions_of(d):
            N = len(lam) + 1
            P = macdonald_polynomial(lam, N)
            assert apply_mr(P) == P.scale(mr_eigenvalue(lam))


def _heap_div_binomial(zt, i, j):
    """Reference division by v_i - v_j (i < j): the leading term v_i is
    cancelled in graded-lex order, one term at a time from a heap."""
    work = dict(zt)
    quo = {}
    rem = {}
    heap = [(-sum(e), tuple(-x for x in e)) for e in work]
    heapq.heapify(heap)
    while heap:
        key = heapq.heappop(heap)
        e = tuple(-x for x in key[1])
        c = work.pop(e, None)
        if c is None:
            continue
        if e[i] == 0:
            rem[e] = c
            continue
        ne = list(e)
        ne[i] -= 1
        qe = tuple(ne)
        prev = quo.get(qe)
        quo[qe] = c if prev is None else prev + c
        ne[j] += 1
        ke = tuple(ne)
        s = work.get(ke)
        if s is None:
            work[ke] = c
            heapq.heappush(heap, (-sum(ke), tuple(-x for x in ke)))
        else:
            s = s + c
            if s.is_zero():
                del work[ke]
            else:
                work[ke] = s
    quo = {e: c for e, c in quo.items() if not c.is_zero()}
    rem = {e: c for e, c in rem.items() if not c.is_zero()}
    return quo, (rem or None)


_DENOMINATORS = (P_ONE, P_ONE - P_Q, P_ONE + P_T, P_Q * P_T)


def _random_terms(rng, nvars, nterms, scalars, max_deg=3):
    """Random terms with Z[q, t] coefficients, or with QTScalar coefficients
    over a random denominator when ``scalars``."""
    out = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        c = QTPolynomial({(rng.randint(0, 2), rng.randint(0, 2)): rng.choice([-3, -1, 1, 2]),
                          (rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-2, 2)})
        if scalars:
            c = QTScalar(c, rng.choice(_DENOMINATORS))
        if not c.is_zero():
            out[e] = c
    return out


def test_line_division_matches_heap_division():
    rng = random.Random(6)
    remainders = 0
    for scalars in (False, True):
        for nvars in (3, 4):
            # every pair i < j: adjacent and non-adjacent
            for (i, j) in [(a, b) for a in range(nvars) for b in range(a + 1, nvars)]:
                for _ in range(8):
                    g = _random_terms(rng, nvars, 6, scalars)
                    multiple = _mul_binomial(g, i, j, -1)
                    quo, rem = _div_difference(multiple, i, j)
                    assert rem is None and quo == g
                    assert (quo, rem) == _heap_div_binomial(multiple, i, j)
                    other = _random_terms(rng, nvars, 5, scalars)
                    for f in (other, _mul_binomial(other, i, j, -1) | g):
                        quo, rem = _div_difference(f, i, j)
                        assert (quo, rem) == _heap_div_binomial(f, i, j)
                        # f = (v_i - v_j) quo + rem, with rem free of v_i
                        check = dict(f)
                        _sub_into(check, _mul_binomial(quo, i, j, -1))
                        assert check == (rem or {})
                        assert all(e[i] == 0 for e in rem or ())
                        remainders += rem is not None
    assert remainders > 0


def test_divided_difference_matches_transpose_and_divide():
    rng = random.Random(10)
    for scalars in (False, True):
        for nvars in (2, 3, 4):
            for (i, j) in [(a, b) for a in range(nvars) for b in range(a + 1, nvars)]:
                for _ in range(6):
                    f = _random_terms(rng, nvars, 7, scalars, max_deg=4)
                    diff = dict(f)
                    _sub_into(diff, _transpose(f, i, j))
                    quo, rem = _div_difference(diff, i, j)
                    assert rem is None
                    dd = _divided_difference(f, i, j)
                    assert dd == quo
                    assert _transpose(dd, i, j) == dd
                    assert _divided_difference(_transpose(f, i, j), i, j) == \
                        {e: -c for e, c in dd.items()}
