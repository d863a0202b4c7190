"""Macdonald polynomials and their two-alphabet restrictions.

The polynomial attached to a partition is constructed as the unique
symmetric eigenfunction of the q-difference operator that is monic on its
monomial term with dominance-lower support (a triangular solve).  Its
monomial coefficients do not depend on the variable count (Macdonald,
SFHP VI.3-4): N only drops the terms with more than N parts, so every
N >= |lam| shares the one solve at N = |lam|, and an N-variable polynomial
is a rendering of that expansion.  The branching coefficients are
Macdonald's closed form psi (SFHP VI (6.24)(ii)) with t replaced by 1/t and
do not use that construction, so every tableau formula downstream is an
independent check of it.  One memoized recursion sums every tableau formula
by peeling the strip that holds letter 1 (SFHP VI (7.13')); the bitableau
sums group their fillings by the inner shape.  The two-alphabet (super)
polynomial is the image under the restriction homomorphism computed through
the power-sum basis.
"""

from functools import cache

from .errors import InvalidPartitionError, MacruiError
from . import partitions as pt
from .operators import apply_mr, mr_eigenvalue
from .polyring import (MultiPoly, VarSpace, _add_into, _cleared, _combination,
                       linear_combination)
from .scalar import P_ONE, QTPolynomial, QTScalar, S_ONE, qt_monomial, t_pow
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
    pt.check_parts(lam, N)
    return _macdonald_m_expansion(lam, min(N, pt.weight(lam)))


@cache
def _macdonald_m_expansion(lam, N):
    d = pt.weight(lam)
    if d == 0:
        return {(): S_ONE}
    parts = pt.partitions_of(d, max_length=N)  # descending lex refines dominance
    parts = parts[parts.index(lam):]  # the only m_nu whose images are read
    cmat = {nu: _mr_monomial_expansion(nu, N) for nu in parts}
    clam = mr_eigenvalue(lam)
    u = {lam: S_ONE}
    for mu in parts[1:]:
        # sum_nu u_nu c_{nu mu} as one cleared combination: the operator's
        # m-matrix has Z[q, t] entries
        row = _combination((unu, {mu: cmat[nu][mu]}) for nu, unu in u.items()
                           if mu in cmat[nu])
        if row:
            u[mu] = row[mu] / (clam - mr_eigenvalue(mu))
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
    lam/mu of psi_{lam/mu} z1^{|lam/mu|} P_mu(rest).  psi_{lam/mu} is
    Macdonald's closed form (SFHP VI (6.24)(ii)) with t replaced by 1/t:
    the product of b_mu(s)/b_lam(s) over the boxes s in a row meeting
    lam/mu and in no column meeting it, reduced once.
    """
    return _branching_coefficients(pt.as_partition(lam))


def _b(lam, box):
    """b_lam(s) of SFHP VI (6.14) with t replaced by 1/t, cleared to Z[q, t]:
    the pair (t^{l+1} - q^a, t^{l+1} - q^{a+1} t)."""
    a, l, _, _ = pt.arm_leg(lam, box)
    tl = QTPolynomial.monomial(0, l + 1)
    return tl - QTPolynomial.monomial(a, 0), tl - QTPolynomial.monomial(a + 1, 1)


@cache
def _branching_coefficients(lam):
    out = {}
    for mu in pt.horizontal_strips_below(lam):
        skew = strip_boxes(lam, mu)
        cols = {j for _, j in skew}
        num = den = P_ONE
        for i in dict.fromkeys(i for i, _ in skew):
            for j in range(1, pt.part(mu, i) + 1):
                if j not in cols:
                    (mnum, mden), (lnum, lden) = _b(mu, (i, j)), _b(lam, (i, j))
                    num = num * mnum * lden
                    den = den * mden * lnum
        out[mu] = QTScalar(num, den)
    return out


def strip_boxes(outer, inner):
    """Boxes of outer/inner, row by row."""
    out = []
    for i in range(1, len(outer) + 1):
        for j in range(pt.part(inner, i) + 1, pt.part(outer, i) + 1):
            out.append((i, j))
    return out


def _box_node(box, shift=0):
    """The interpolation node q^{a'(s) + shift} t^{l'(s)} of the box s = (i, j)."""
    i, j = box
    return qt_monomial(j - 1 + shift, i - 1)


@cache
def _strip_sum(outer, inner, N, shift):
    """The reverse-tableau sum on outer/inner with entries 1..N, as a z-space
    polynomial, by peeling letter 1 first (SFHP VI (7.13')).

    Letter 1 fills a horizontal strip outer/kappa, kappa containing inner,
    weighted by psi_{outer/kappa}; the other letters fill kappa/inner.  With
    ``shift`` None the strip contributes z1^{|outer/kappa|}: the Macdonald
    tableau sum.  Otherwise each of its boxes contributes
    (z1 - q^shift * node), and each peel t^{|kappa/inner|}, so that a box
    holding entry k carries t^{k-1}: the interpolation tableau sum.
    """
    space = VarSpace.z(N)
    if N == 0:
        return MultiPoly.one(space) if outer == inner else MultiPoly.zero(space)
    z1 = MultiPoly.variable(space, 0)
    pairs = []
    for kappa, psi in branching_coefficients(outer).items():
        if not pt.contains(inner, kappa):
            continue
        tail = _strip_sum(kappa, inner, N - 1, shift)
        if tail.is_zero():
            continue
        if shift is None:
            factor = MultiPoly.variable(space, 0, pt.weight(outer) - pt.weight(kappa))
        else:
            factor = MultiPoly.one(space)
            for box in strip_boxes(outer, kappa):
                factor = factor * (z1 - MultiPoly.constant(space, _box_node(box, shift)))
            psi = psi * t_pow(pt.weight(kappa) - pt.weight(inner))
        # the tail over its common denominator, so that the level is one
        # cleared sum of denominator-free polynomials
        nums, den = _cleared(tail.terms)
        lifted = MultiPoly._raw(space, {(0,) + e: QTScalar._raw(num, P_ONE)
                                        for e, num in nums.items()})
        if den is not P_ONE:
            psi = psi * QTScalar._raw(P_ONE, den)
        pairs.append((psi, factor * lifted))
    return linear_combination(space, pairs)


def macdonald_tableau_sum(lam, N):
    """P_lam assembled from the tableau formula: sum over reverse tableaux
    of the chain weight times prod_s x_{T(s)}."""
    return skew_tableau_sum(lam, (), N)


def skew_tableau_sum(lam, mu, N):
    """The skew polynomial of shape lam/mu as a tableau sum."""
    lam, mu = pt.as_partition(lam), pt.as_partition(mu)
    if not pt.contains(mu, lam):
        raise InvalidPartitionError(f"{mu} is not contained in {lam}")
    return _strip_sum(lam, mu, N, None)


def _inner_shape_sum(lam, n, m, xshift, yshift):
    """A two-alphabet tableau sum grouped by the inner shape mu of lam.

    The unprimed letters fill lam/mu and the primed letters mu, read as a
    reverse tableau on mu' with q and t exchanged:
    sum_mu hook_ratio(mu) X(lam/mu) swap_qt(Y(mu')), with X and Y the strip
    sums in n and m letters at ``xshift`` and ``yshift``.  The sign in front
    of the hook ratio was pinned against the restriction homomorphism: it is
    +1 for every shape tested.
    """
    lam = pt.as_partition(lam)
    if not pt.in_fat_hook(lam, n, m):
        raise InvalidPartitionError(f"{lam} is outside the fat ({n}, {m})-hook")
    terms = {}
    for mu in pt.subpartitions(lam):
        x = _strip_sum(lam, mu, n, xshift)
        if x.is_zero():
            continue
        y = _strip_sum(pt.conjugate(mu), (), m, yshift).swap_parameters()
        ratio = pt.hook_ratio(mu)
        for ey, cy in y.terms.items():
            cy = cy * ratio
            _add_into(terms, {ex + ey: cx * cy for ex, cx in x.terms.items()})
    return MultiPoly._raw(VarSpace.xy(n, m), terms)


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


def super_tableau_sum(lam, n, m):
    """The two-alphabet polynomial as a bitableau sum, grouped by the inner
    shape; agrees with the restriction route for every diagram in the fat
    hook."""
    return _inner_shape_sum(lam, n, m, None, None)


def parameter_duality_sign(lam):
    """Measure the sign in the parameter-swap duality of P_lam.

    Applying the ratio automorphism p_r -> ((1-q^r)/(1-t^r)) p_r to P_lam
    yields, up to sign, (H(lam)/H(lam') with parameters swapped) times the
    conjugate polynomial with parameters swapped.  Returns +1 or -1, or
    raises when the two sides are not proportional by a sign.
    """
    lam = pt.as_partition(lam)
    lhs = qt_ratio_automorphism(macdonald_p_expansion(lam))
    ratio = pt.hook_ratio(lam)
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
