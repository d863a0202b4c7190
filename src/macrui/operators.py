"""Difference operators: the q-difference operator on symmetric polynomials,
its two-alphabet deformation, and the Hecke / commuting-difference-operator
calculus that generates higher integrals.

Operator applications never form rational functions in the main variables.
A block sum sum_i A_i (T_i - 1) f is a chain of divided differences over
consecutive block variables (Lagrange interpolation in divided-difference
form), each step an exact division by one binomial v_a - v_b.  In the
deformed operator the cross pairs x_a - y_b stay in the denominator: the
sum is assembled over their product and divided by it at the end, one
binomial at a time, where an input outside the operator domain leaves a
remainder.  The engine runs polyring's term-dict routines on Z[q, t]
numerators: scalar denominators of the input are cleared first and restored
at the end.  The Hecke generators take the same divided difference on
QTScalar coefficients.
"""

from collections import namedtuple
from functools import reduce

from .errors import NonDivisibleError, NotSymmetricError
from . import partitions as pt
from .polyring import (MultiPoly, VarSpace, _cleared, _div_difference,
                       _divided_difference, _mul_binomial, _reduce_each,
                       _scale, _shift, _sub_into)
from .scalar import (P_ONE, P_Q, P_T, QTPolynomial, QTScalar, S_ONE, S_Q,
                     S_T, over_irreducible)

OperatorResult = namedtuple("OperatorResult", ["value", "divisibility_witnesses"])

_M_Q = -P_Q
_M_T = -P_T
_ONE_MINUS_Q = P_ONE - P_Q
_ONE_MINUS_T = P_ONE - P_T


# ---------------------------------------------------------------------------
# term engine over polynomial coefficients
# ---------------------------------------------------------------------------

def _z_to_poly(space, zt, den0, irreducibles):
    """The polynomial with coefficients c / (den0 * prod(irreducibles)).

    Each distinct numerator is reduced once: over ``den0`` (no gcd when it
    is 1), then by one trial division per irreducible factor.
    """
    return MultiPoly._raw(space, _reduce_each(
        zt, lambda c: reduce(over_irreducible, irreducibles, QTScalar(c, den0))))


def _shift_difference(zt, i, factor):
    """(T_{factor, v_i} - 1) zt."""
    out = _shift(zt, i, factor)
    _sub_into(out, zt)
    return out


def _pair_name(space, a, b):
    return f"{space.var_name(a)}-{space.var_name(b)}"


def _divide_factors(space, total, pairs, den0, irreducibles):
    """Divide ``total`` by v_a - v_b for every pair; collect witnesses."""
    witnesses = []
    for (a, b) in pairs:
        total, rem = _div_difference(total, a, b)
        name = _pair_name(space, a, b)
        if rem is not None:
            raise NonDivisibleError(
                f"operator sum not divisible by {name}; input outside the operator domain",
                remainder=_z_to_poly(space, rem, den0, irreducibles))
        witnesses.append(name)
    return total, witnesses


def _pairs(indices):
    return [(a, b) for ai, a in enumerate(indices) for b in indices[ai + 1:]]


def _antisymmetrized(start, block, row, pairs=()):
    """The block sum of an operator numerator, its Vandermonde divided out.

    With i0 = block[0], h is ``start`` times the distinguished row
    prod_{(k, c) in row} (v_i0 + c v_k) times every pair (v_a - v_b) of
    ``pairs`` that does not involve i0.  For h symmetric in block[1:],
    sum_i s_{i0 i}(h) / prod_{k != i} (v_i - v_k), over i and k in the block,
    is the chain d_{r-1} ... d_1 h of divided differences
    d_j f = (f - s_j f)/(v_{b_j} - v_{b_{j+1}}) over consecutive block
    variables: Lagrange interpolation in divided-difference form (Macdonald,
    Symmetric Functions and Hall Polynomials, VI.3; Lascoux, Symmetric
    Functions and Combinatorial Operators on Polynomials, ch. 7).  Every
    step is exact.
    """
    i0 = block[0]
    h = start
    for k, cpoly in row:
        h = _mul_binomial(h, i0, k, cpoly)
    for (a, b) in pairs:
        if a != i0 and b != i0:
            h = _mul_binomial(h, a, b, -1)
    for a, b in zip(block, block[1:]):
        h = _divided_difference(h, a, b)
    return h


def _deformed_sum(space, start):
    """(1-t) sum_i A_i C start(x_i) + (1-q) sum_j B_j C start(y_j), where C is
    the product of the cross pairs x_a - y_b and ``start(i, factor)`` is the
    term dict acted on at the distinguished variable i, shifted by q at an x
    variable and by t at a y variable.  Returns the sum and the cross pairs."""
    n, m = space.n, space.m
    xs, ys = list(space.x_indices()), list(space.y_indices())
    cross = [(a, b) for a in xs for b in ys]
    total = {}
    if n:
        row = [(k, _M_T) for k in xs[1:]] + [(j, _M_Q) for j in ys]
        total = _scale(_antisymmetrized(start(xs[0], P_Q), xs, row, cross),
                       P_ONE - P_T)
    if m:
        # the n cross pairs (x_a - y_j0) of C read as (y_j0 - x_a) in the
        # row of y_j0, a sign (-1)^n; the subtraction below adds the y half
        row = [(i, _M_T) for i in xs] + [(l, _M_Q) for l in ys[1:]]
        sign = P_Q - P_ONE if n % 2 == 0 else P_ONE - P_Q
        _sub_into(total, _scale(
            _antisymmetrized(start(ys[0], P_T), ys, row, cross), sign))
    return total, cross


# ---------------------------------------------------------------------------
# the q-difference operator on symmetric polynomials
# ---------------------------------------------------------------------------

def apply_mr_detailed(f, block=None):
    """Apply the q-difference operator summing over ``block`` (default: all).

    (1/(1-q)) sum_i prod_{j != i} (v_i - t v_j)/(v_i - v_j) (T_{q,v_i} - 1)
    with i, j running over the block.  The input must be symmetric in the
    block; variables outside it are spectators.
    """
    space = f.space
    if block is None:
        if space.kind != "z":
            raise ValueError("default block applies to z-spaces only")
        block = list(range(space.dim))
    block = sorted(block)
    if not f.is_symmetric(block):
        raise NotSymmetricError("input not symmetric in the operator block")
    if not block or f.is_zero():
        return OperatorResult(MultiPoly.zero(space), [])
    zt, den0 = _cleared(f.terms)
    total = _antisymmetrized(_shift_difference(zt, block[0], P_Q), block,
                             [(k, _M_T) for k in block[1:]])
    witnesses = [_pair_name(space, a, b) for a, b in _pairs(block)]
    return OperatorResult(_z_to_poly(space, total, den0, (_ONE_MINUS_Q,)),
                          witnesses)


def apply_mr(f, block=None):
    return apply_mr_detailed(f, block).value


def mr_eigenvalue(lam):
    """(1/(1-q)) sum_i (q^{lambda_i} - 1) t^{i-1}; independent of the variable
    count.  It is the polynomial -sum_i [lambda_i]_q t^{i-1}, built as such."""
    lam = pt.as_partition(lam)
    num = {(k, i): -1 for i, p in enumerate(lam) for k in range(p)}
    return QTScalar._raw(QTPolynomial._raw(num), P_ONE)


# ---------------------------------------------------------------------------
# the deformed operator on two alphabets
# ---------------------------------------------------------------------------

def apply_deformed_mr_detailed(f):
    """Apply the deformed operator mixing q-shifts in x and t-shifts in y.

    The input must be symmetric in each block.  An input that violates the
    quasi-invariance condition surfaces as a NonDivisibleError from the
    cross factors, carrying the remainder.
    """
    space = f.space
    if space.kind != "xy":
        raise ValueError("the deformed operator acts on xy-spaces")
    for block in ("x", "y"):
        if not f.is_symmetric(block):
            raise NotSymmetricError(f"input not symmetric in the {block} block")
    if f.is_zero():
        return OperatorResult(MultiPoly.zero(space), [])
    zt, den0 = _cleared(f.terms)
    total, cross = _deformed_sum(
        space, lambda i, factor: _shift_difference(zt, i, factor))
    witnesses = [_pair_name(space, a, b) for a, b in
                 _pairs(space.x_indices()) + _pairs(space.y_indices())]
    irreducibles = (_ONE_MINUS_Q, _ONE_MINUS_T)
    total, divided = _divide_factors(space, total, cross, den0, irreducibles)
    return OperatorResult(_z_to_poly(space, total, den0, irreducibles),
                          witnesses + divided)


def apply_deformed_mr(f):
    return apply_deformed_mr_detailed(f).value


# ---------------------------------------------------------------------------
# Hecke operators and the commuting difference operators built from them
# ---------------------------------------------------------------------------

def hecke_T(f, i):
    """T_i = 1 + ((v_i - t v_{i+1})/(v_i - v_{i+1})) (s_i - 1), i is 1-based.

    Always polynomial: s_i f - f is antisymmetric in the pair, hence
    divisible by their difference with no remainder.
    """
    space = f.space
    a, b = i - 1, i
    if not (1 <= i <= space.dim - 1):
        raise ValueError(f"T_{i} needs 1 <= i <= {space.dim - 1}")
    out = dict(f.terms)
    _sub_into(out, _mul_binomial(_divided_difference(f.terms, a, b), a, b, -S_T))
    return MultiPoly._raw(space, out)


def hecke_T_inv(f, i):
    """Inverse of T_i, from the quadratic relation (T_i - 1)(T_i + t) = 0."""
    return (hecke_T(f, i) - f.scale(S_ONE - S_T)).scale(S_T.inverse())


def cycle_shift(f):
    """The composite of the q-shift in the first variable followed by the
    cycle of coordinate transpositions: f |-> f(q v_N, v_1, ..., v_{N-1})."""
    N = f.space.dim
    if N == 1:
        return f.shift_variable(0, S_Q)
    subs = {0: (N - 1, S_Q)}
    for i in range(1, N):
        subs[i] = (i - 1, S_ONE)
    return f.substitute(subs)


def cherednik_dunkl(f, i):
    """The i-th commuting difference operator (1-based), built from the
    Hecke generators around the cycle shift.

    Composition order and normalization are pinned by the commutation,
    Hecke-relation, and restriction identities in the test suite: factors
    apply right to left and no overall power of t is applied.
    """
    N = f.space.dim
    if not (1 <= i <= N):
        raise ValueError(f"operator index {i} out of range 1..{N}")
    g = f
    for k in range(i - 1, 0, -1):
        g = hecke_T_inv(g, k)
    g = cycle_shift(g)
    for k in range(N - 1, i - 1, -1):
        g = hecke_T(g, k)
    return g


def operator_from_shifted_symmetric(g, f):
    """Substitute the commuting difference operators into a shifted
    symmetric polynomial g and apply the result to a symmetric f."""
    from .symfun import is_shifted_symmetric

    if g.space != f.space:
        raise ValueError("g and f must share a variable space")
    if not is_shifted_symmetric(g):
        raise NotSymmetricError("g is not shifted symmetric")
    result = MultiPoly.zero(f.space)
    for e, c in g.terms.items():
        h = f
        for idx, k in enumerate(e):
            for _ in range(k):
                h = cherednik_dunkl(h, idx + 1)
        result = result + h.scale(c)
    if not result.is_symmetric("all"):
        raise NotSymmetricError("operator image is not symmetric")
    return result


# ---------------------------------------------------------------------------
# the closed coefficient-sum identity behind the operator restriction
# ---------------------------------------------------------------------------

def coefficient_sum_identity(n, m):
    """Verify sum_i A_i + ((1-q)/(1-t)) sum_j B_j = (t^n q^m - 1)/(t - 1)
    as an exact rational-function identity, together with the one-block
    analogue sum_l C_l = (t^N - 1)/(t - 1) at N = n + m."""
    if n + m < 1:
        raise ValueError("need at least one variable")
    N = n + m
    one = {(0,) * N: P_ONE}
    total, cross = _deformed_sum(VarSpace.xy(n, m), lambda i, factor: one)
    # identity times (1-t)*C: rhs is (1 - t^n q^m) * C
    cprod = one
    for (a, b) in cross:
        cprod = _mul_binomial(cprod, a, b, -1)
    _sub_into(total, _scale(cprod, P_ONE - QTPolynomial.monomial(m, n)))
    if total:
        return False

    # the one-block sum at N = n + m: (t - 1) * sum_l C_l == t^N - 1
    block = list(range(N))
    lhs = _scale(_antisymmetrized(one, block, [(k, _M_T) for k in block[1:]]),
                 P_T - P_ONE)
    _sub_into(lhs, {(0,) * N: QTPolynomial.monomial(0, N) - P_ONE})
    return not lhs
