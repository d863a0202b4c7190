"""The strip recursion against the tableau enumerations it replaced.

Every tableau formula in the library is summed by one memoized recursion
that peels the horizontal strip holding letter 1 (``macdonald._strip_sum``);
the two-alphabet sums group their bitableaux by the inner shape.  The
references below enumerate the (bi)tableaux one by one with
``reverse_tableaux`` and weight each by its chain of branching
coefficients, as the library did before.  Each pair must agree exactly.
``reference_interpolation_sum`` is the enumeration that the interpolation
tests in ``test_shifted.py`` and ``test_acceptance.py`` compare with the
vanishing solve and the branching recursion.
"""

from macrui import macdonald, partitions as pt, shifted
from macrui.macdonald import (branching_coefficients, macdonald_tableau_sum,
                              skew_tableau_sum, strip_boxes, super_tableau_sum)
from macrui.polyring import MultiPoly, VarSpace
from macrui.scalar import S_ONE, q_pow, qt_monomial, t_pow
from macrui.shifted import interpolation_by_branching, shifted_super_tableau_sum

TYPES = [(1, 1), (2, 1), (1, 2), (2, 2)]


def _shape_chains(top, steps, bottom):
    """Chains top = s_0 >= s_1 >= ... >= s_steps = bottom of horizontal strips."""
    if steps == 0:
        if top == bottom:
            yield (top,)
        return
    for nxt in pt.horizontal_strips_below(top):
        if pt.contains(bottom, nxt):
            for rest in _shape_chains(nxt, steps - 1, bottom):
                yield (top,) + rest


class ReverseTableau:
    """A filling of a (skew) diagram with entries decreasing strictly down
    columns and weakly along rows, represented through its strip chain."""

    def __init__(self, chain):
        self.chain = chain  # chain[k]/chain[k+1] holds entry k+1
        self.entries = {box: k + 1 for k in range(len(chain) - 1)
                        for box in strip_boxes(chain[k], chain[k + 1])}

    def weight_in_chain(self):
        """Product of branching weights along the chain."""
        w = S_ONE
        for a, b in zip(self.chain, self.chain[1:]):
            w = w * branching_coefficients(a)[b]
        return w


def reverse_tableaux(shape, max_entry, base=()):
    """All reverse tableaux on shape/base with entries in 1..max_entry."""
    for chain in _shape_chains(shape, max_entry, base):
        yield ReverseTableau(chain)


def exponents(tab):
    """The exponent vector of prod_s x_{T(s)}: letter k fills
    chain[k-1]/chain[k]."""
    return tuple(pt.weight(a) - pt.weight(b) for a, b in zip(tab.chain, tab.chain[1:]))


def reference_skew_sum(lam, mu, N):
    space = VarSpace.z(N)
    total = MultiPoly.zero(space)
    for tab in reverse_tableaux(lam, N, base=mu):
        total = total + MultiPoly._raw(space, {exponents(tab): tab.weight_in_chain()})
    return total


def bitableaux(lam, n, m):
    """Triples (mu, unprimed tableau on lam/mu, primed tableau on mu'): the
    primed letters fill the inner shape mu, transposed to a reverse tableau."""
    for mu in pt.subpartitions(lam):
        for ytab in reverse_tableaux(pt.conjugate(mu), m):
            for xtab in reverse_tableaux(lam, n, base=mu):
                yield mu, xtab, ytab


def bitableau_weight(mu, xtab, ytab):
    """The unprimed chain weight, times the primed chain weight with q and t
    exchanged, times the hook ratio of the inner shape."""
    return xtab.weight_in_chain() * ytab.weight_in_chain().swap_qt() * pt.hook_ratio(mu)


def reference_super_sum(lam, n, m):
    space = VarSpace.xy(n, m)
    total = MultiPoly.zero(space)
    for mu, xtab, ytab in bitableaux(lam, n, m):
        e = exponents(xtab) + exponents(ytab)
        total = total + MultiPoly._raw(space, {e: bitableau_weight(mu, xtab, ytab)})
    return total


def reference_shifted_super_sum(lam, n, m):
    """Unprimed boxes contribute (x_k - q^{a'} t^{l'}) t^{k-1}; primed boxes
    (y_j - q^{a'} t^{l'} t^n) q^{j-1}; the sum carries the alignment."""
    space = VarSpace.xy(n, m)
    total = MultiPoly.zero(space)
    for mu, xtab, ytab in bitableaux(lam, n, m):
        term = MultiPoly.constant(space, bitableau_weight(mu, xtab, ytab))
        for (i, j), entry in xtab.entries.items():
            factor = (MultiPoly.variable(space, entry - 1)
                      - MultiPoly.constant(space, qt_monomial(j - 1, i - 1)))
            term = term * factor.scale(t_pow(entry - 1))
        for (i, j), entry in ytab.entries.items():  # the box (j, i) of mu
            factor = (MultiPoly.variable(space, n + entry - 1)
                      - MultiPoly.constant(space, qt_monomial(i - 1, j - 1 + n)))
            term = term * factor.scale(q_pow(entry - 1))
        total = total + term
    return total.scale(pt.normalization_alignment(lam))


def reference_interpolation_sum(lam, N):
    """The interpolation polynomial as a box-weighted tableau sum, aligned
    to the hook normalization: each box contributes
    (x_{T(s)} - q^{a'(s)} t^{l'(s)}) t^{T(s)-1}."""
    space = VarSpace.z(N)
    total = MultiPoly.zero(space)
    for tab in reverse_tableaux(lam, N):
        term = MultiPoly.constant(space, tab.weight_in_chain())
        for (i, j), entry in tab.entries.items():
            factor = (MultiPoly.variable(space, entry - 1)
                      - MultiPoly.constant(space, qt_monomial(j - 1, i - 1)))
            term = term * factor.scale(t_pow(entry - 1))
        total = total + term
    return total.scale(pt.normalization_alignment(lam))


def test_skew_sums_match_the_enumeration():
    for lam in pt.partitions_up_to(6):
        for mu in pt.subpartitions(lam):
            for N in range(4):
                assert skew_tableau_sum(lam, mu, N) == reference_skew_sum(lam, mu, N), \
                    (lam, mu, N)


def test_macdonald_tableau_sums_match_the_enumeration():
    for lam in pt.partitions_up_to(6):
        assert macdonald_tableau_sum(lam, 5) == reference_skew_sum(lam, (), 5), lam


def test_two_alphabet_sums_match_the_bitableau_enumeration():
    for n, m in TYPES:
        for lam in pt.partitions_up_to(4):
            if not pt.in_fat_hook(lam, n, m):
                continue
            assert super_tableau_sum(lam, n, m) == reference_super_sum(lam, n, m), \
                (lam, n, m)
            assert (shifted_super_tableau_sum(lam, n, m)
                    == reference_shifted_super_sum(lam, n, m)), (lam, n, m)


def test_single_box_bitableau_count():
    # one box with one letter of each kind: primed or unprimed
    assert len(list(bitableaux((1,), 1, 1))) == 2


def test_tableau_sums_enumerate_no_tableaux(monkeypatch):
    def refuse(*args):
        raise AssertionError("a tableau sum enumerated tableaux")

    # the library keeps no enumeration; the reference here is the only one
    for module in (macdonald, shifted):
        for name in ("_shape_chains", "ReverseTableau", "reverse_tableaux",
                     "interpolation_tableau_sum"):
            assert not hasattr(module, name), (module.__name__, name)
    macdonald._strip_sum.cache_clear()
    monkeypatch.setitem(globals(), "_shape_chains", refuse)
    skew_tableau_sum((3, 2, 1), (1,), 3)
    macdonald_tableau_sum((3, 1), 3)
    super_tableau_sum((2, 1), 2, 1)
    shifted_super_tableau_sum((2, 1), 2, 1)
    interpolation_by_branching((2, 1), 3)
