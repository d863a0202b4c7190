"""Macdonald polynomials and their two-alphabet restrictions.

The polynomial attached to a partition is constructed as the unique
symmetric eigenfunction of the q-difference operator that is monic on its
monomial term with dominance-lower support (a triangular solve).  Its
monomial coefficients do not depend on the variable count (Macdonald,
SFHP VI.3-4): N only drops the terms with more than N parts, so every
N >= |lam| shares the one solve at N = |lam|, and an N-variable polynomial
is a rendering of that expansion.  Branching coefficients are read off the
same expansion, which makes every tableau formula downstream
convention-proof.  The two-alphabet (super) polynomial is the image under
the restriction homomorphism computed through the power-sum basis.
"""

from functools import cache

from .errors import InvalidPartitionError, MacruiError
from . import partitions as pt
from .operators import apply_mr, mr_eigenvalue
from .polyring import MultiPoly, VarSpace
from .scalar import P_ZERO, QTScalar, S_ONE, S_ZERO, over_common_denominator
from .symfun import (SymExpansion, from_monomial_expansion, monomial_symmetric,
                     monomial_to_power_expansion,
                     qt_ratio_automorphism, restrict_p_expansion,
                     to_monomial_expansion)


@cache
def _mr_monomial_expansion(nu, N):
    """m-basis coefficients of the difference operator applied to m_nu."""
    return to_monomial_expansion(apply_mr(monomial_symmetric(nu, N))).coeffs


def macdonald_m_expansion(lam, N):
    """Coefficients u_mu of P_lam = m_lam + sum_{mu} u_mu m_mu at N variables.

    Solved triangularly from the eigenfunction condition; the support comes
    out dominance-lower automatically.  Denominators are differences of
    distinct eigenvalues, nonzero for symbolic parameters.  The u_mu do not
    depend on N, which only drops the mu with more than N parts: every
    N >= |lam| holds all partitions of |lam| and shares the solve at
    N = |lam|, and a smaller N solves on the partitions with at most N parts.
    """
    lam = pt.as_partition(lam)
    if len(lam) > N:
        raise InvalidPartitionError(f"{lam} needs more than {N} variables")
    return _macdonald_m_expansion(lam, min(N, pt.weight(lam)))


@cache
def _macdonald_m_expansion(lam, N):
    d = pt.weight(lam)
    if d == 0:
        return {(): S_ONE}
    parts = pt.partitions_of(d, max_length=N)  # descending lex refines dominance
    cmat = {nu: _mr_monomial_expansion(nu, N) for nu in parts}
    clam = mr_eigenvalue(lam)
    u = {lam: S_ONE}
    started = False
    for mu in parts:
        if mu == lam:
            started = True
            continue
        if not started:
            continue
        # sum_nu u_nu c_{nu mu} over one common denominator of the u_nu (the
        # operator's m-matrix has Z[q, t] entries) and reduce the sum once
        pairs = [(unu, cmat[nu][mu]) for nu, unu in u.items() if mu in cmat[nu]]
        nums, den = over_common_denominator(unu for unu, _ in pairs)
        num = sum((n * c.num for n, (_, c) in zip(nums, pairs)), P_ZERO)
        if not num.is_zero():
            u[mu] = QTScalar(num, den) / (clam - mr_eigenvalue(mu))
    return u


def macdonald_polynomial(lam, N):
    """P_lam in N variables (z-space)."""
    return from_monomial_expansion(SymExpansion("m", N, macdonald_m_expansion(lam, N)))


# ---------------------------------------------------------------------------
# branching and tableau formulas
# ---------------------------------------------------------------------------

def branching_coefficients(lam):
    """The one-variable branching weights of P_lam.

    Peeling the first variable writes P_lam as a sum over horizontal strips
    lam/mu of psi_{lam/mu} z1^{|lam/mu|} P_mu(rest).  In l(lam) + 1 variables
    the coefficient of z1^a m_nu(rest) in P_lam is u_kappa, kappa being nu
    with one part a added (a = 0 only when l(kappa) <= l(lam)), so each
    z1-slice is read straight off the m-expansion; the weights are then
    peeled off the slices, so they are consistent with this library's
    normalization by construction.
    """
    return _branching_coefficients(pt.as_partition(lam))


@cache
def _branching_coefficients(lam):
    if not lam:
        return {(): S_ONE}
    n = len(lam)
    by_power = {}  # a -> {nu: coefficient of z1^a m_nu(z2, ..., z_{n+1})}
    for kappa, c in macdonald_m_expansion(lam, n + 1).items():
        removed = {a: kappa[:i] + kappa[i + 1:] for i, a in enumerate(kappa)}
        if len(kappa) <= n:
            removed[0] = kappa
        for a, nu in removed.items():
            by_power.setdefault(a, {})[nu] = c
    strips = pt.horizontal_strips_below(lam)
    out = {}
    for a, expr in by_power.items():
        cands = sorted((mu for mu in strips if pt.weight(lam) - pt.weight(mu) == a),
                       reverse=True)
        for mu in cands:
            psi = expr.pop(mu, S_ZERO)
            out[mu] = psi
            if psi.is_zero():
                continue
            for nu, c in macdonald_m_expansion(mu, n).items():
                if nu == mu:
                    continue
                s = expr.get(nu, S_ZERO) - psi * c
                if s.is_zero():
                    expr.pop(nu, None)
                else:
                    expr[nu] = s
        if any(not c.is_zero() for c in expr.values()):
            raise MacruiError(
                f"branching extraction of {lam} left unmatched terms at power {a}")
    for mu in strips:
        out.setdefault(mu, S_ZERO)
    return out


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


def strip_boxes(outer, inner):
    """Boxes of outer/inner, row by row."""
    out = []
    for i in range(1, len(outer) + 1):
        for j in range(pt.part(inner, i) + 1, pt.part(outer, i) + 1):
            out.append((i, j))
    return out


class ReverseTableau:
    """A filling of a (skew) diagram with entries decreasing strictly down
    columns and weakly along rows, represented through its strip chain."""

    __slots__ = ("shape", "base", "chain", "entries")

    def __init__(self, shape, base, chain):
        self.shape = shape
        self.base = base
        self.chain = chain  # chain[k]/chain[k+1] holds entry k+1
        entries = {}
        for k in range(len(chain) - 1):
            for box in strip_boxes(chain[k], chain[k + 1]):
                entries[box] = k + 1
        self.entries = entries

    def exponents(self):
        """The exponent vector of prod_s x_{T(s)}: entry k occurs
        |chain[k-1]| - |chain[k]| times."""
        return tuple(pt.weight(a) - pt.weight(b)
                     for a, b in zip(self.chain, self.chain[1:]))

    def weight_in_chain(self):
        """Product of branching weights along the chain."""
        w = S_ONE
        for a, b in zip(self.chain, self.chain[1:]):
            w = w * branching_coefficients(a)[b]
            if w.is_zero():
                break
        return w

    def __repr__(self):
        return f"ReverseTableau(shape={self.shape}, base={self.base}, entries={self.entries})"


def reverse_tableaux(shape, max_entry, base=()):
    """All reverse tableaux on shape/base with entries in 1..max_entry."""
    shape = pt.as_partition(shape)
    base = pt.as_partition(base)
    if not pt.contains(base, shape):
        raise InvalidPartitionError(f"{base} is not contained in {shape}")
    for chain in _shape_chains(shape, max_entry, base):
        yield ReverseTableau(shape, base, chain)


def macdonald_tableau_sum(lam, N):
    """P_lam assembled from the tableau formula: sum over reverse tableaux
    of the chain weight times prod_s x_{T(s)}."""
    return skew_tableau_sum(lam, (), N)


def skew_tableau_sum(lam, mu, N):
    """The skew polynomial of shape lam/mu as a tableau sum."""
    lam, mu = pt.as_partition(lam), pt.as_partition(mu)
    if not pt.contains(mu, lam):
        raise InvalidPartitionError(f"{mu} is not contained in {lam}")
    space = VarSpace.z(N)
    total = MultiPoly.zero(space)
    for tab in reverse_tableaux(lam, N, base=mu):
        w = tab.weight_in_chain()
        if not w.is_zero():
            total = total + MultiPoly._raw(space, {tab.exponents(): w})
    return total


# ---------------------------------------------------------------------------
# restriction to two alphabets
# ---------------------------------------------------------------------------

def macdonald_p_expansion(lam):
    """Power-sum expansion of P_lam, which does not depend on the variable count.

    The m-coefficients are solved at N = |lam|, the fewest variables that
    hold every partition of |lam|, and rewritten in power-sum products
    without rendering P_lam as a polynomial.  The test suite checks the
    result against the route through the polynomial at |lam| + 1 variables.
    """
    return _macdonald_p_expansion(pt.as_partition(lam))


@cache
def _macdonald_p_expansion(lam):
    d = pt.weight(lam)
    return monomial_to_power_expansion(
        SymExpansion("m", d, macdonald_m_expansion(lam, d)))


def super_macdonald(lam, n, m):
    """The restriction of P_lam to the two-alphabet algebra in (n, m)
    variables; exactly zero when the diagram leaves the fat (n, m)-hook."""
    lam = pt.as_partition(lam)
    return restrict_p_expansion(macdonald_p_expansion(lam), n, m)


class Bitableau:
    """A two-alphabet filling: an inner shape mu carries the primed alphabet
    (transposed to an ordinary reverse tableau on mu'), the skew shape
    lam/mu carries the unprimed alphabet."""

    __slots__ = ("shape", "inner", "unprimed", "primed_conjugate")

    def __init__(self, shape, inner, unprimed, primed_conjugate):
        self.shape = shape
        self.inner = inner
        self.unprimed = unprimed              # ReverseTableau on shape/inner
        self.primed_conjugate = primed_conjugate  # ReverseTableau on inner'

    def primed_entries(self):
        """Entries of the primed part as a map box-of-inner -> alphabet index."""
        out = {}
        for (i, j), v in self.primed_conjugate.entries.items():
            out[(j, i)] = v
        return out

    def __repr__(self):
        return (f"Bitableau(shape={self.shape}, inner={self.inner}, "
                f"unprimed={self.unprimed.entries}, primed={self.primed_entries()})")


def bitableaux(lam, n, m):
    """All bitableaux of shape lam and type (n, m)."""
    lam = pt.as_partition(lam)
    for mu in pt.subpartitions(lam):
        muc = pt.conjugate(mu)
        for ytab in reverse_tableaux(muc, m):
            for xtab in reverse_tableaux(lam, n, base=mu):
                yield Bitableau(lam, mu, xtab, ytab)


def bitableau_weight(tab):
    """The measured weight of a bitableau in the two-alphabet tableau formula.

    Product of the skew chain weight of the unprimed part, the chain weight
    of the transposed primed part with the parameters exchanged, and the hook
    ratio of the inner shape.  The overall sign was pinned against the
    restriction homomorphism: it is +1 for every shape tested.
    """
    mu = tab.inner
    ratio = pt.hook_product(mu) / pt.hook_product(pt.conjugate(mu)).swap_qt()
    return (tab.unprimed.weight_in_chain()
            * tab.primed_conjugate.weight_in_chain().swap_qt()
            * ratio)


def super_tableau_sum(lam, n, m):
    """The two-alphabet polynomial assembled from bitableaux; agrees with
    the restriction route for every diagram in the fat hook."""
    lam = pt.as_partition(lam)
    if not pt.in_fat_hook(lam, n, m):
        raise InvalidPartitionError(f"{lam} is outside the fat ({n}, {m})-hook")
    space = VarSpace.xy(n, m)
    total = MultiPoly.zero(space)
    for tab in bitableaux(lam, n, m):
        w = bitableau_weight(tab)
        if not w.is_zero():
            e = tab.unprimed.exponents() + tab.primed_conjugate.exponents()
            total = total + MultiPoly._raw(space, {e: w})
    return total


def parameter_duality_sign(lam):
    """Measure the sign in the parameter-swap duality of P_lam.

    Applying the ratio automorphism p_r -> ((1-q^r)/(1-t^r)) p_r to P_lam
    yields, up to sign, (H(lam)/H(lam') with parameters swapped) times the
    conjugate polynomial with parameters swapped.  Returns +1 or -1, or
    raises when the two sides are not proportional by a sign.
    """
    lam = pt.as_partition(lam)
    lhs = qt_ratio_automorphism(macdonald_p_expansion(lam))
    ratio = pt.hook_product(lam) / pt.hook_product(pt.conjugate(lam)).swap_qt()
    rhs = {mu: c.swap_qt() * ratio
           for mu, c in macdonald_p_expansion(pt.conjugate(lam)).coeffs.items()}
    if set(lhs.coeffs) != set(rhs):
        raise MacruiError(f"duality support mismatch for {lam}")
    sign = None
    for mu, c in lhs.coeffs.items():
        r = c / rhs[mu]
        if r == S_ONE:
            s = 1
        elif r == QTScalar.from_int(-1):
            s = -1
        else:
            raise MacruiError(f"duality ratio for {lam} at {mu} is {r}, not a sign")
        if sign is None:
            sign = s
        elif sign != s:
            raise MacruiError(f"inconsistent duality signs for {lam}")
    return sign if sign is not None else 1
