"""The operator engine against the Vandermonde round trip it replaced.

The engine sums each block with a chain of divided differences.  The
reference route below multiplies the numerator by the whole Vandermonde
product, antisymmetrizes over the block with transpositions, and divides
every pair back out, one binomial at a time.  Values, witness lists and
the remainders of inputs outside the operator domain must agree exactly.
"""

import pytest

from macrui import operators, partitions as pt
from macrui.errors import NonDivisibleError
from macrui.macdonald import super_macdonald
from macrui.operators import (OperatorResult, _divide_factors, _M_Q, _M_T,
                              _ONE_MINUS_Q, _ONE_MINUS_T, _pairs,
                              _shift_difference, _z_to_poly,
                              apply_deformed_mr_detailed, apply_mr_detailed)
from macrui.polyring import (MultiPoly, VarSpace, _cleared, _mul_binomial,
                             _scale, _sub_into, _transpose)
from macrui.scalar import P_ONE, P_Q, P_T, S_ONE, S_Q, S_T
from macrui.symfun import deformed_newton_sum, monomial_symmetric


def _round_trip_sum(start, block, row, pairs):
    """start times the distinguished row and every pair of ``pairs`` away
    from block[0], antisymmetrized over the block by transpositions."""
    i0 = block[0]
    g = start
    for k, c in row:
        g = _mul_binomial(g, i0, k, c)
    for (a, b) in pairs:
        if a != i0 and b != i0:
            g = _mul_binomial(g, a, b, -1)
    total = dict(g)
    for i in block[1:]:
        _sub_into(total, _transpose(g, i0, i))
    return total


def reference_apply_mr_detailed(f, block):
    space = f.space
    block = sorted(block)
    zt, den0 = _cleared(f.terms)
    pairs = _pairs(block)
    total = _round_trip_sum(_shift_difference(zt, block[0], P_Q), block,
                            [(k, _M_T) for k in block[1:]], pairs)
    total, witnesses = _divide_factors(space, total, pairs, den0, (_ONE_MINUS_Q,))
    return OperatorResult(_z_to_poly(space, total, den0, (_ONE_MINUS_Q,)), witnesses)


def reference_apply_deformed_mr_detailed(f):
    space = f.space
    n = space.n
    xs, ys = list(space.x_indices()), list(space.y_indices())
    pairs = _pairs(xs) + _pairs(ys) + [(a, b) for a in xs for b in ys]
    zt, den0 = _cleared(f.terms)
    total = {}
    if xs:
        row = [(k, _M_T) for k in xs[1:]] + [(j, _M_Q) for j in ys]
        total = _scale(_round_trip_sum(_shift_difference(zt, xs[0], P_Q), xs,
                                       row, pairs), P_ONE - P_T)
    if ys:
        row = [(i, _M_T) for i in xs] + [(l, _M_Q) for l in ys[1:]]
        sign = P_Q - P_ONE if n % 2 == 0 else P_ONE - P_Q
        _sub_into(total, _scale(_round_trip_sum(_shift_difference(zt, ys[0], P_T),
                                                ys, row, pairs), sign))
    irreducibles = (_ONE_MINUS_Q, _ONE_MINUS_T)
    total, witnesses = _divide_factors(space, total, pairs, den0, irreducibles)
    return OperatorResult(_z_to_poly(space, total, den0, irreducibles), witnesses)


def test_apply_mr_matches_round_trip_on_monomials():
    compared = 0
    for N in range(1, 6):
        for d in range(6):
            for nu in pt.partitions_of(d, max_length=N):
                f = monomial_symmetric(nu, N)
                block = list(range(N))
                assert apply_mr_detailed(f) == reference_apply_mr_detailed(f, block)
                compared += 1
    assert compared == 71


def test_apply_mr_matches_round_trip_on_a_sub_block():
    sp = VarSpace.z(3)
    z1, z2, z3 = (MultiPoly.variable(sp, i) for i in range(3))
    # symmetric in z1, z3 with z2 a spectator, and scalar denominators
    f = (z1 * z3 * (z1 + z3) + (z1 * z1 + z3 * z3) * z2.scale(S_Q / (S_ONE - S_T))
         + z2 * z2 * z2 + MultiPoly.constant(sp, S_T))
    for block in ([2, 0], [0, 2]):
        res = apply_mr_detailed(f, block=block)
        assert res == reference_apply_mr_detailed(f, block)
        assert res.divisibility_witnesses == ["z1-z3"]
    sp4 = VarSpace.z(4)
    g = monomial_symmetric((2, 1), 3)
    lifted = MultiPoly(sp4, {(a, 1, b, c): v for (a, b, c), v in g.terms.items()})
    lifted = lifted + MultiPoly.variable(sp4, 1, 3).scale(S_T / S_Q)
    res = apply_mr_detailed(lifted, block=[3, 0, 2])
    assert res == reference_apply_mr_detailed(lifted, [0, 2, 3])
    assert res.divisibility_witnesses == ["z1-z3", "z1-z4", "z3-z4"]


HOOKS = [(1, 1), (2, 1), (1, 2), (2, 2)]


def test_apply_deformed_mr_matches_round_trip_on_super_macdonald():
    compared = 0
    for (n, m) in HOOKS:
        for d in range(5):
            for lam in pt.partitions_of(d, fat_hook=(n, m)):
                S = super_macdonald(lam, n, m)
                if S.is_zero():
                    continue
                assert (apply_deformed_mr_detailed(S)
                        == reference_apply_deformed_mr_detailed(S))
                compared += 1
    assert compared == 47


@pytest.mark.parametrize("n, m", HOOKS)
def test_non_divisible_remainders_match_round_trip(n, m):
    # the ordinary power sum p_2 is outside the two-alphabet algebra
    sp = VarSpace.xy(n, m)
    p2 = MultiPoly(sp, {tuple(2 if k == i else 0 for k in range(n + m)): 1
                        for i in range(n + m)})
    with pytest.raises(NonDivisibleError) as got:
        apply_deformed_mr_detailed(p2)
    with pytest.raises(NonDivisibleError) as want:
        reference_apply_deformed_mr_detailed(p2)
    assert str(got.value) == str(want.value)
    assert got.value.remainder == want.value.remainder
    assert not got.value.remainder.is_zero()
    # the deformed Newton sum is inside it, with the same witnesses
    good = deformed_newton_sum(2, n, m)
    assert apply_deformed_mr_detailed(good) == reference_apply_deformed_mr_detailed(good)


def test_apply_mr_has_no_vandermonde_round_trip(monkeypatch):
    """N - 1 multiplications (the distinguished row) and N - 1 exact
    divisions (the divided-difference chain), nothing else."""
    counts = {}

    def counted(name):
        inner = getattr(operators, name)

        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return inner(*args)
        monkeypatch.setattr(operators, name, wrapper)

    for name in ("_mul_binomial", "_divided_difference", "_div_difference"):
        counted(name)
    for N in range(1, 7):
        counts.clear()
        apply_mr_detailed(monomial_symmetric((2, 1) if N > 1 else (2,), N))
        divisions = counts.get("_divided_difference", 0) + counts.get("_div_difference", 0)
        assert counts.get("_mul_binomial", 0) == N - 1
        assert divisions == N - 1
