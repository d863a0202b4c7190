"""Interpolation polynomials: vanishing, branching, tableaux, duality,
and the shifted two-alphabet restriction."""

import pytest

from macrui import partitions as pt
from macrui.errors import InvalidPartitionError, SingularSystemError
from macrui.linalg import vectors_rank
from macrui.macdonald import macdonald_polynomial, super_tableau_sum
from macrui.polyring import MultiPoly, VarSpace
from macrui.scalar import S_ONE, S_Q, S_T, q_pow, qt_ratio, t_pow
from macrui.shifted import (duality_check, evaluate_at_partition,
                            fat_hook_point, interpolation_by_branching,
                            interpolation_polynomial,
                            interpolation_pstar_expansion,
                            shifted_super_macdonald,
                            shifted_super_tableau_sum)
from macrui.symfun import shifted_power_sum

from test_tableau_reference import reference_interpolation_sum


def test_vanishing_solve_examples():
    assert interpolation_polynomial((), 1) == MultiPoly.one(VarSpace.z(1))
    assert interpolation_polynomial((1,), 2) == shifted_power_sum(1, 2)
    P2 = interpolation_polynomial((2,), 2)
    assert evaluate_at_partition(P2, (2,)) == pt.hook_product((2,))


def test_vanishing_solve_needs_enough_variables():
    with pytest.raises(SingularSystemError):
        interpolation_polynomial((2,), 1)
    with pytest.raises(ValueError, match="variable count must be an integer"):
        interpolation_polynomial((1,), 1.5)
    with pytest.raises(InvalidPartitionError):
        interpolation_polynomial((1, 1), 1)
    with pytest.raises(InvalidPartitionError):
        interpolation_polynomial((1,), -1)
    with pytest.raises(ValueError):
        interpolation_polynomial((), -1)


def test_defining_vanishing_conditions():
    for lam in [(1,), (2,), (1, 1), (2, 1)]:
        d = pt.weight(lam)
        P = interpolation_polynomial(lam, d)
        for dd in range(d + 1):
            for mu in pt.partitions_of(dd):
                val = evaluate_at_partition(P, mu)
                if mu == lam:
                    assert val == pt.hook_product(lam)
                else:
                    assert val.is_zero()


def test_extra_vanishing_beyond_defining_set():
    for d in range(4):
        for lam in pt.partitions_of(d):
            for dd in range(d + 3):
                for mu in pt.partitions_of(dd):
                    if pt.contains(lam, mu):
                        continue
                    N = max(d, len(mu), 1)
                    val = evaluate_at_partition(interpolation_polynomial(lam, N), mu)
                    assert val.is_zero(), (lam, mu)


def test_branching_examples():
    sp1 = VarSpace.z(1)
    assert interpolation_by_branching((1,), 1) == MultiPoly.variable(sp1, 0) - 1
    assert interpolation_by_branching((1,), 2) == shifted_power_sum(1, 2)
    assert interpolation_by_branching((), 2) == MultiPoly.one(VarSpace.z(2))


def test_tableau_examples():
    assert reference_interpolation_sum((1,), 2) == shifted_power_sum(1, 2)
    assert reference_interpolation_sum((1, 1), 1).is_zero()
    assert interpolation_by_branching((1, 1), 1).is_zero()


def test_top_degree_is_rescaled_polynomial():
    # the top-degree part is the ordinary polynomial with x_i scaled by
    # t^{i-1}, up to the same normalization alignment the whole sum carries
    for d in range(4):
        for lam in pt.partitions_of(d, max_length=3):
            N = max(d, 1)
            P = reference_interpolation_sum(lam, N)
            assert interpolation_by_branching(lam, N) == P
            top = P.homogeneous_component(d)
            expect = macdonald_polynomial(lam, N)
            for i in range(1, N):
                expect = expect.shift_variable(i, t_pow(i))
            assert top == expect.scale(pt.normalization_alignment(lam))


def test_triple_agreement():
    for d in range(4):
        for lam in pt.partitions_of(d, max_length=3):
            N = 3
            v = interpolation_polynomial(lam, N)
            assert interpolation_by_branching(lam, N) == v
            assert reference_interpolation_sum(lam, N) == v


def test_shifted_expansion_coefficients_stable_in_variable_count():
    from macrui.symfun import to_shifted_power_expansion

    for lam in [(1,), (2,), (1, 1), (2, 1)]:
        d = pt.weight(lam)
        small = to_shifted_power_expansion(interpolation_polynomial(lam, d))
        large = to_shifted_power_expansion(interpolation_polynomial(lam, d + 1))
        assert small.coeffs == large.coeffs
    # the solved expansion against the one recovered from the rendered polynomial
    for d in range(5):
        for lam in pt.partitions_of(d):
            for N in (d, d + 1):
                rendered = to_shifted_power_expansion(interpolation_polynomial(lam, N))
                assert interpolation_pstar_expansion(lam) == rendered, (lam, N)


def test_vanishing_system_solved_once_per_degree(monkeypatch):
    from macrui import shifted

    shifted._interpolations.cache_clear()
    calls = []
    solve = shifted.solve_square

    def counted(matrix, columns):
        calls.append((len(matrix), len(columns)))
        return solve(matrix, columns)

    monkeypatch.setattr(shifted, "solve_square", counted)
    for lam in pt.partitions_of(4):
        for N in (4, 5):
            interpolation_polynomial(lam, N)
        shifted_super_macdonald(lam, 1, 1)
    # one square system over the partitions of weight at most 4, with one
    # right-hand side per shape of weight 4
    assert calls == [(len(pt.partitions_up_to(4)), len(pt.partitions_of(4)))]


def test_vanishing_suite_families_at_weight_three():
    from macrui.verify import run_suite

    report = run_suite("vanishing", 3)
    assert report["ok"]
    families = {}
    for check in report["checks"]:
        family = check["name"].split(" lam=")[0]
        families[family] = families.get(family, 0) + 1
    assert families == {"branching agrees": 7, "top degree agrees": 7,
                        "normalization": 7, "extra vanishing": 11}
    assert report["bounds"] == {"extra vanishing": {"weight": 2}}


def test_variable_reduction_stability():
    # sending trailing variables to one reduces to the smaller construction
    for lam in [(1,), (2,), (1, 1)]:
        d = pt.weight(lam)
        big = interpolation_polynomial(lam, d + 2)
        small = interpolation_polynomial(lam, d)
        bindings = {i: S_ONE for i in range(d, d + 2)}
        reduced = big.substitute(bindings)
        lifted = MultiPoly(VarSpace.z(d + 2),
                           {e + (0, 0): c for e, c in small.terms.items()})
        assert reduced == lifted


def test_evaluation_examples():
    p1 = shifted_power_sum(1, 3)
    assert evaluate_at_partition(p1, ()).is_zero()
    assert evaluate_at_partition(p1, (1,)) == S_Q - 1
    assert evaluate_at_partition(p1, (2, 1)) == (q_pow(2) - 1) + (S_Q - 1) * S_T


def test_duality_examples():
    assert duality_check((1,), (1,))
    lhs = evaluate_at_partition(interpolation_polynomial((1,), 1), (1,))
    assert lhs == S_Q - 1
    assert duality_check((1,), ())
    assert duality_check((2,), (2, 1))


def test_duality_up_to_weight_three():
    shapes = [lam for d in range(4) for lam in pt.partitions_of(d)]
    for lam in shapes:
        for mu in shapes:
            assert duality_check(lam, mu)


def test_duality_suite_computes_each_value_once(monkeypatch):
    from macrui import shifted, symfun, verify

    shifted._interpolations.cache_clear()
    values, clearings = [], []
    value, clear = verify.interpolation_value, symfun._cleared

    def counted_value(lam, mu):
        values.append((lam, mu))
        return value(lam, mu)

    def counted_clear(coeffs):
        clearings.append(1)
        return clear(coeffs)

    monkeypatch.setattr(verify, "interpolation_value", counted_value)
    monkeypatch.setattr(symfun, "_cleared", counted_clear)
    report = verify.run_suite("duality", 3)
    shapes = pt.partitions_up_to(3)
    assert report["ok"] and report["total"] == len(shapes) ** 2 == 49
    # each value once: the right side of (lam, mu) is the left side of (lam', mu')
    assert sorted(values) == sorted((lam, mu) for lam in shapes for mu in shapes)
    # one cleared form per shape, kept with its expansion by expansion_value
    assert len(clearings) == len(shapes)


def test_fat_hook_point_examples():
    assert fat_hook_point((1,), 1, 1) == [q_pow(1), t_pow(1)]
    assert fat_hook_point((), 1, 1) == [q_pow(0), t_pow(1)]
    assert fat_hook_point((2, 1), 1, 2) == [q_pow(2), t_pow(2), t_pow(1)]
    with pytest.raises(InvalidPartitionError):
        fat_hook_point((2, 2), 1, 1)


def test_shifted_super_examples():
    sp = VarSpace.xy(1, 1)
    x, y = MultiPoly.variable(sp, 0), MultiPoly.variable(sp, 1)
    S1 = shifted_super_macdonald((1,), 1, 1)
    assert S1 == (x - 1) + (y - MultiPoly.constant(sp, S_T)).scale(qt_ratio(1))
    assert S1.evaluate(fat_hook_point((1,), 1, 1)) == pt.hook_product((1,))
    S2 = shifted_super_macdonald((2,), 1, 1)
    assert S2.evaluate(fat_hook_point((1,), 1, 1)).is_zero()


def test_shifted_super_kernel():
    for (n, m) in [(1, 1)]:
        for d in range(5):
            vecs = []
            inside_count = 0
            for lam in pt.partitions_of(d):
                S = shifted_super_macdonald(lam, n, m)
                inside = pt.in_fat_hook(lam, n, m)
                assert S.is_zero() == (not inside)
                if inside:
                    inside_count += 1
                    vecs.append(S.terms)
            assert vectors_rank(vecs) == inside_count


def test_shifted_super_values_at_hook_points():
    for (n, m) in [(1, 1), (2, 1)]:
        for d in range(4):
            for lam in pt.partitions_of(d, fat_hook=(n, m)):
                S = shifted_super_macdonald(lam, n, m)
                assert S.evaluate(fat_hook_point(lam, n, m)) == pt.hook_product(lam)
                for dd in range(d + 1):
                    for mu in pt.partitions_of(dd, fat_hook=(n, m)):
                        if pt.contains(lam, mu):
                            continue
                        assert S.evaluate(fat_hook_point(mu, n, m)).is_zero()


def test_shifted_super_block_symmetry_and_quasi_invariance():
    for (n, m) in [(1, 1), (2, 1)]:
        for d in range(4):
            for lam in pt.partitions_of(d, fat_hook=(n, m)):
                S = shifted_super_macdonald(lam, n, m)
                # symmetric in x_i t^{i-1} and in y_j q^{j-1} separately
                xs = S
                for i in range(1, n):
                    xs = xs.shift_variable(i, t_pow(i).inverse())
                for j in range(1, m):
                    xs = xs.shift_variable(n + j, q_pow(j).inverse())
                assert xs.is_symmetric("x")
                if m > 1:
                    assert xs.is_symmetric("y")
                # shift condition on every hyperplane x_i t^{i-1} = y_j q^{j-1}
                for i in range(n):
                    for j in range(m):
                        diff = S.shift_variable(i, S_Q) - S.shift_variable(n + j, S_T)
                        image = t_pow(i) * q_pow(j).inverse()
                        assert diff.substitute({n + j: (i, image)}).is_zero()


def test_shifted_super_tableau_examples():
    sp10 = VarSpace.xy(1, 0)
    assert shifted_super_tableau_sum((1,), 1, 0) == MultiPoly.variable(sp10, 0) - 1
    sp01 = VarSpace.xy(0, 1)
    y1 = MultiPoly.variable(sp01, 0)
    assert shifted_super_tableau_sum((1,), 0, 1) == (y1 - 1).scale(qt_ratio(1))
    assert shifted_super_tableau_sum((1,), 0, 1) == shifted_super_macdonald((1,), 0, 1)


def test_shifted_super_tableau_equals_restriction():
    for (n, m) in [(1, 1), (2, 1)]:
        for d in range(5):
            for lam in pt.partitions_of(d, fat_hook=(n, m)):
                assert shifted_super_tableau_sum(lam, n, m) \
                    == shifted_super_macdonald(lam, n, m)


def test_shifted_super_top_degree_matches_rescaled_super():
    for (n, m) in [(1, 1), (2, 1)]:
        for d in range(4):
            for lam in pt.partitions_of(d, fat_hook=(n, m)):
                S = shifted_super_macdonald(lam, n, m)
                top = S.homogeneous_component(d)
                expect = super_tableau_sum(lam, n, m)
                for i in range(1, n):
                    expect = expect.shift_variable(i, t_pow(i))
                for j in range(1, m):
                    expect = expect.shift_variable(n + j, q_pow(j))
                assert top == expect.scale(pt.normalization_alignment(lam))
