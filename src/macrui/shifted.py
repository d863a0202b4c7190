"""Interpolation (shifted) polynomials and their two-alphabet restrictions.

The reference construction solves the vanishing characterization directly:
the interpolation polynomial of shape lambda is the shifted symmetric
polynomial of degree |lambda| vanishing at every evaluation point q^mu with
|mu| <= |lambda|, mu != lambda, and taking the hook-product value at its
own point.  Every shape of one weight shares the vanishing matrix, so the
system is solved once per weight, with one right-hand side per shape, for a
p*-expansion that does not depend on N and renders in any N >= l(lambda).
The one-variable branching recursion (the strip recursion shared with the
Macdonald tableau sums) reproduces it.  It carries an explicit monomial
alignment factor because its intrinsic normalization differs from the hook
normalization by q^{n(lam) - n(lam')} t^{n(lam') - n(lam)} (measured
exactly, verified by the test suite).
"""

from functools import cache

from .errors import InvalidPartitionError
from . import partitions as pt
from .linalg import solve_square
from .macdonald import _inner_shape_sum, _strip_sum
from .polyring import VarSpace
from .scalar import S_ZERO, q_pow, t_pow
from .symfun import (SymExpansion, _cleared_products, expansion_value,
                     from_shifted_power_expansion, restrict_shifted_expansion)


def interpolation_pstar_expansion(lam):
    """The p*-expansion of the interpolation polynomial of shape lambda.

    The vanishing system does not depend on the variable count, so it is
    solved once per weight; the test suite checks the result against the
    expansion recovered from the polynomial at |lambda| and |lambda| + 1
    variables.
    """
    lam = pt.as_partition(lam)
    return _interpolations(pt.weight(lam))[lam]


@cache
def _interpolations(d):
    """The p*-expansion of each shape lambda of weight d."""
    # the square collocation system: the unknowns are the shifted power-sum
    # products of weight at most d, the conditions the values p*_mu(q^nu) at
    # every point q^nu of weight at most d (a trailing coordinate 1 adds
    # nothing to a shifted power sum, so q^nu has l(nu) coordinates); the
    # right-hand side of lambda is zero away from lambda and the hook
    # product on it
    basis = pt.partitions_up_to(d)
    matrix = [[v for _, v in _cleared_products("pstar", VarSpace.z(len(nu)), basis,
                                               partition_point(nu, len(nu)))]
              for nu in basis]
    shapes = pt.partitions_of(d)
    columns = [[pt.hook_product(lam) if nu == lam else S_ZERO for nu in basis]
               for lam in shapes]
    return {lam: SymExpansion("pstar", d, dict(zip(basis, coeffs)))
            for lam, coeffs in zip(shapes, solve_square(matrix, columns))}


def interpolation_polynomial(lam, N):
    """The interpolation polynomial of shape lambda in N >= l(lambda) variables.

    Renders the p*-expansion solved from the vanishing characterization (the
    reference construction).  Below |lambda| variables it is still pinned by
    its values at the q^mu with l(mu) <= N (Knop-Sahi uniqueness).
    """
    lam = pt.as_partition(lam)
    if lam:  # for the empty shape, VarSpace.z rejects a negative N
        pt.check_parts(lam, N)
    return from_shifted_power_expansion(interpolation_pstar_expansion(lam), N)


def interpolation_value(lam, mu):
    """The value of the interpolation polynomial of shape lambda at q^mu.

    Read off the p*-expansion by ``expansion_value``, with no polynomial
    rendered.  A trailing coordinate 1 adds nothing to a shifted power sum,
    so the value does not depend on the variable count, and q^mu has l(mu)
    coordinates.
    """
    lam, mu = pt.as_partition(lam), pt.as_partition(mu)
    return expansion_value(interpolation_pstar_expansion(lam), VarSpace.z(len(mu)),
                           partition_point(mu, len(mu)))


def partition_point(mu, N):
    """The point (q^{mu_1}, ..., q^{mu_N}), trailing coordinates equal to 1."""
    mu = pt.as_partition(mu)
    if len(mu) > N:
        raise InvalidPartitionError(f"{mu} has more parts than variables")
    return [q_pow(pt.part(mu, i + 1)) for i in range(N)]


def evaluate_at_partition(f, mu):
    """Evaluate a z-space polynomial at the point of mu.  For an
    interpolation polynomial, ``interpolation_value`` gives the same value
    without the polynomial."""
    return f.evaluate(partition_point(mu, f.space.dim))


# ---------------------------------------------------------------------------
# branching recursion
# ---------------------------------------------------------------------------

def interpolation_by_branching(lam, N):
    """The interpolation polynomial as the box-weighted tableau sum, by the
    peeling recursion, aligned to the hook normalization: each box
    contributes (x_{T(s)} - q^{a'(s)} t^{l'(s)}) t^{T(s)-1}."""
    lam = pt.as_partition(lam)
    return _strip_sum(lam, (), N, 0).scale(pt.normalization_alignment(lam))


def duality_check(lam, mu):
    """Exact check of the evaluation duality: the value of the lambda
    polynomial at q^mu equals the hook ratio times the value of the
    conjugate-shape polynomial, with parameters exchanged, at t^{mu'}.

    Both values come off the p*-expansions (``interpolation_value``): the
    parameter-swapped polynomial at t^{mu'} is the q <-> t image of the
    conjugate-shape polynomial at q^{mu'}.
    """
    lam, mu = pt.as_partition(lam), pt.as_partition(mu)
    pairs = ((lam, mu), (pt.conjugate(lam), pt.conjugate(mu)))
    return _duality_holds(lam, mu, {pair: interpolation_value(*pair) for pair in pairs})


def _duality_holds(lam, mu, values):
    """The duality for one pair, its values looked up in ``values``: a map
    (shape, point) -> ``interpolation_value`` holding (lam, mu) and
    (lam', mu')."""
    return (values[lam, mu]
            == pt.hook_ratio(lam) * values[pt.conjugate(lam), pt.conjugate(mu)].swap_qt())


# ---------------------------------------------------------------------------
# the shifted restriction and its tableau formula
# ---------------------------------------------------------------------------

def fat_hook_point(lam, n, m):
    """The (n + m)-coordinate evaluation point attached to a fat-hook shape:
    q^{lambda_i} on the x-block and t^{mu'_j} t^n on the y-block, where mu
    is the part of the diagram below row n."""
    lam = pt.as_partition(lam)
    if not pt.in_fat_hook(lam, n, m):
        raise InvalidPartitionError(f"{lam} is outside the fat ({n}, {m})-hook")
    mu = lam[n:]
    muc = pt.conjugate(mu)
    point = [q_pow(pt.part(lam, i + 1)) for i in range(n)]
    point += [t_pow(pt.part(muc, j + 1) + n) for j in range(m)]
    return point


def shifted_super_macdonald(lam, n, m):
    """Image of the interpolation polynomial under the shifted restriction;
    exactly zero when the diagram leaves the fat (n, m)-hook."""
    return restrict_shifted_expansion(interpolation_pstar_expansion(lam), n, m)


def shifted_super_tableau_sum(lam, n, m):
    """The shifted two-alphabet polynomial as a bitableau sum, grouped by
    the inner shape.

    Unprimed boxes contribute (x_k - q^{a'} t^{l'}) t^{k-1}; primed boxes
    contribute (y_j - q^{a'} t^{l'} t^n) q^{j-1}, the extra t^n being the
    block offset of the evaluation points (pinned against the restriction
    route): the strip sum on mu' with nodes shifted by q^n, q and t then
    exchanged.  The whole sum carries the same alignment factor as the other
    tableau formulas.
    """
    lam = pt.as_partition(lam)
    return _inner_shape_sum(lam, n, m, 0, n).scale(pt.normalization_alignment(lam))
