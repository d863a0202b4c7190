"""Values read off the N-independent expansions against rendered polynomials.

``eval`` reads its value off an expansion with ``symfun.expansion_value``,
for every ``--which``, and renders nothing; ``interpolation_value`` is one
call to it, at q^mu in l(mu) variables.  ``expansion_value`` keeps the
coefficients over their common denominator with the expansion, one form per
space kind.  The reference renders the polynomial with the builder
of the construction verb that ``--which`` names and evaluates it term by
term at the point of mu: ``evaluate_at_partition`` in N variables, or
``MultiPoly.evaluate`` at ``fat_hook_point`` in (n, m) variables.  Both
routes must agree exactly.
"""

from functools import cache

import pytest

from macrui import partitions as pt, symfun
from macrui.macdonald import macdonald_p_expansion, macdonald_polynomial, super_macdonald
from macrui.polyring import VarSpace
from macrui.scalar import S_ONE
from macrui.shifted import (evaluate_at_partition, fat_hook_point,
                            interpolation_polynomial, interpolation_pstar_expansion,
                            interpolation_value, partition_point, shifted_super_macdonald)
from macrui.symfun import SymExpansion, expansion_value

SHAPES = pt.partitions_up_to(5)
POINTS = [(), (1,), (2, 1), (1, 1, 1), (2, 2)]
SPACES = [(1, 1), (2, 1), (1, 2), (2, 2)]

# the builders of the four --which, each rendering shared within the run
RENDER = {which: cache(builder) for which, builder in [
    ("macdonald", macdonald_polynomial), ("shifted", interpolation_polynomial),
    ("super", super_macdonald), ("shifted-super", shifted_super_macdonald)]}


def z_value(which, lam, mu, N):
    e = macdonald_p_expansion(lam) if which == "macdonald" else interpolation_pstar_expansion(lam)
    return expansion_value(e, VarSpace.z(N), partition_point(mu, N))


@pytest.mark.parametrize("which", ["macdonald", "shifted"])
def test_value_in_N_variables_matches_the_rendering(which):
    for lam in SHAPES:
        for mu in POINTS:
            default = max(len(lam), 1, pt.weight(lam), len(mu))
            for N in (default, default + 2):
                want = evaluate_at_partition(RENDER[which](lam, N), mu)
                assert z_value(which, lam, mu, N) == want, (lam, mu, N)
                if which == "shifted":
                    assert interpolation_value(lam, mu) == want, (lam, mu, N)


@pytest.mark.parametrize("which", ["super", "shifted-super"])
def test_value_in_two_alphabets_matches_the_rendering(which):
    for lam in SHAPES:
        e = macdonald_p_expansion(lam) if which == "super" else interpolation_pstar_expansion(lam)
        for mu in POINTS:
            for n, m in SPACES:
                if pt.in_fat_hook(mu, n, m):
                    point = fat_hook_point(mu, n, m)
                    assert expansion_value(e, VarSpace.xy(n, m), point) \
                        == RENDER[which](lam, n, m).evaluate(point), (lam, mu, n, m)


def test_value_below_the_weight_in_N_variables():
    # P_lam in fewer than |lam| variables drops the m_nu with more than N
    # parts: the image of the same p-expansion
    for lam in SHAPES:
        for N in range(len(lam), pt.weight(lam)):
            for mu in POINTS:
                if len(mu) <= N:
                    assert z_value("macdonald", lam, mu, N) \
                        == evaluate_at_partition(RENDER["macdonald"](lam, N), mu)


def test_expansion_value_reads_p_and_pstar_expansions_only():
    with pytest.raises(ValueError):
        expansion_value(SymExpansion("m", 1, {(1,): 1}), VarSpace.z(1),
                        partition_point((1,), 1))
    # the empty-shape expansions are the constant 1 in every space
    for e in (macdonald_p_expansion(()), interpolation_pstar_expansion(())):
        assert expansion_value(e, VarSpace.z(0), []) == S_ONE
        assert expansion_value(e, VarSpace.xy(1, 1), fat_hook_point((), 1, 1)) == S_ONE


def test_one_clearing_per_expansion_and_space_kind(monkeypatch):
    clearings = []
    clear = symfun._cleared

    def counted(coeffs):
        clearings.append(1)
        return clear(coeffs)

    monkeypatch.setattr(symfun, "_cleared", counted)
    lam, mu = (3, 1), (2, 1)
    for which, restricted in (("macdonald", "super"), ("shifted", "shifted-super")):
        base = macdonald_p_expansion(lam) if which == "macdonald" \
            else interpolation_pstar_expansion(lam)
        # a z-space, then an xy-space (other s_mu), then z- and xy-spaces again
        spaces = [(VarSpace.z(N), partition_point(mu, N),
                   evaluate_at_partition(RENDER[which](lam, N), mu)) for N in (4, 5)]
        spaces[1:1] = [(VarSpace.xy(n, m), fat_hook_point(mu, n, m),
                        RENDER[restricted](lam, n, m).evaluate(fat_hook_point(mu, n, m)))
                       for n, m in ((1, 1), (2, 1))]
        e = SymExpansion(base.basis, base.N, base.coeffs)  # an empty memo
        del clearings[:]
        for space, point, want in spaces + spaces[:1]:
            assert expansion_value(e, space, point) == want, (which, space)
        assert len(clearings) == 2, which
