"""The orbit-representative routes of symfun against the routes they replaced.

The super restriction computes each coefficient once, at the block-sorted
exponent of its orbit, and copies it over the orbit.  The reference below
accumulates every term of every cleared image over the common denominator,
as the restriction did before.  The p -> m matrix counts row fillings; the
reference renders p_mu in d variables and reads off its m-expansion.  A
p*-expansion renders as one cleared sum over the generator images; the
reference multiplies out the shifted power sums for each mu and adds
c_mu times that product term by term.  Each pair must agree exactly.
"""

import pytest

from macrui import partitions as pt
from macrui import symfun
from macrui.macdonald import macdonald_p_expansion
from macrui.polyring import MultiPoly, VarSpace, linear_combination
from macrui.scalar import S_ONE, t_pow
from macrui.shifted import interpolation_pstar_expansion
from macrui.symfun import (SymExpansion, _cleared_image, _image_sum,
                           _power_in_monomial_matrix, deformed_newton_sum,
                           from_shifted_power_expansion, power_sum_product,
                           restrict_p_expansion, shifted_power_sum, to_monomial_expansion)

SPACES = [(0, 2), (2, 0), (1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]


def reference_restrict_p_expansion(e, n, m):
    space = VarSpace.xy(n, m)
    return _image_sum(e, space, [_cleared_image("p", space, mu) for mu in e.coeffs])


@pytest.mark.parametrize("n,m", SPACES)
def test_restriction_matches_full_accumulation(n, m):
    for d in range(1, 6):
        for lam in pt.partitions_of(d):
            e = macdonald_p_expansion(lam)
            assert restrict_p_expansion(e, n, m) == reference_restrict_p_expansion(e, n, m)


@pytest.mark.parametrize("n,m", SPACES)
def test_restriction_of_single_power_products(n, m):
    for d in range(1, 6):
        for mu in pt.partitions_of(d):
            e = SymExpansion("p", d, {mu: S_ONE})
            got = restrict_p_expansion(e, n, m)
            assert got == reference_restrict_p_expansion(e, n, m)
            direct = MultiPoly.one(VarSpace.xy(n, m))
            for k in mu:
                direct = direct * deformed_newton_sum(k, n, m)
            assert got == direct


def test_restriction_accumulates_only_representatives(monkeypatch):
    """At (2, 2) and weight 5 the images hold 56 exponents, 20 of them
    block-sorted; only those 20 reach the common-denominator sum."""
    seen = []

    def counting(space, pairs):
        pairs = list(pairs)
        seen.append(set().union(*(poly.terms for _, poly in pairs)))
        return linear_combination(space, pairs)

    monkeypatch.setattr(symfun, "linear_combination", counting)
    for lam in pt.partitions_of(5):
        seen.clear()
        e = macdonald_p_expansion(lam)
        restrict_p_expansion(e, 2, 2)
        full = set().union(*(_cleared_image("p", VarSpace.xy(2, 2), mu)[1].terms
                             for mu in e.coeffs))
        assert len(full) == 56 and [len(exps) for exps in seen] == [20]


def test_power_in_monomial_matrix_matches_rendering():
    for d in range(7):
        mus, table = _power_in_monomial_matrix(d)
        assert mus == pt.partitions_of(d)
        for mu in mus:
            assert table[mu] == to_monomial_expansion(power_sum_product(mu, d)).coeffs


def reference_shifted_power_sum(r, N):
    space = VarSpace.z(N)
    total = MultiPoly.zero(space)
    for i in range(N):
        total = total + (MultiPoly.variable(space, i) ** r - 1).scale(t_pow(r * i))
    return total


def reference_shifted_rendering(e, N):
    total = MultiPoly.zero(VarSpace.z(N))
    for mu, c in e.coeffs.items():
        product = MultiPoly.one(VarSpace.z(N))
        for k in mu:
            product = product * reference_shifted_power_sum(k, N)
        total = total + product.scale(c)
    return total


def test_shifted_rendering_matches_the_product_route():
    for lam in pt.partitions_up_to(5):
        e = interpolation_pstar_expansion(lam)
        for N in (pt.weight(lam), pt.weight(lam) + 2):
            got = from_shifted_power_expansion(e, N)
            assert got == reference_shifted_rendering(e, N), (lam, N)
    for r in range(1, 6):
        for N in range(r + 3):
            assert shifted_power_sum(r, N) == reference_shifted_power_sum(r, N)
