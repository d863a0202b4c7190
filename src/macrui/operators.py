"""Difference operators: the q-difference operator on symmetric polynomials,
its two-alphabet deformation, and the Hecke / commuting-difference-operator
calculus that generates higher integrals.

Operator applications never form rational functions in the main variables:
each sum is assembled over the fully cleared denominator (a product of
hyperplane binomials) and divided out exactly once at the end.  The engine
works on terms with polynomial (denominator-free) coefficients; scalar
denominators of the input are cleared first and restored at the end.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import NonDivisibleError, NotSymmetricError
from . import partitions as pt
from .polyring import MultiPoly, VarSpace
from .scalar import (P_ONE, P_Q, P_T, QTPolynomial, QTScalar, S_ONE, S_Q,
                     S_T, over_common_denominator, over_irreducible)

OperatorResult = namedtuple("OperatorResult", ["value", "divisibility_witnesses"])

_M_ONE = QTPolynomial.from_int(-1)
_M_Q = -P_Q
_M_T = -P_T
_ONE_MINUS_Q = P_ONE - P_Q
_ONE_MINUS_T = P_ONE - P_T


# ---------------------------------------------------------------------------
# term engine over polynomial coefficients
# ---------------------------------------------------------------------------

def _clear_denominators(f):
    """Split f into (terms with QTPolynomial coefficients, common denominator)."""
    nums, den = over_common_denominator(f.terms.values())
    return dict(zip(f.terms, nums)), den


def _z_scale(zt, poly):
    return {e: c * poly for e, c in zt.items()}


def _z_sub_into(acc, other):
    for e, c in other.items():
        s = acc.get(e)
        if s is None:
            acc[e] = -c
        else:
            s = s - c
            if s.is_zero():
                del acc[e]
            else:
                acc[e] = s


def _z_sub(a, b):
    out = dict(a)
    _z_sub_into(out, b)
    return out


def _z_shift(zt, i, base):
    """Multiply the coefficient of each term by base^{exponent of v_i}."""
    out = {}
    for e, c in zt.items():
        k = e[i]
        if k:
            mono = QTPolynomial.monomial(k, 0) if base == "q" else QTPolynomial.monomial(0, k)
            out[e] = c * mono
        else:
            out[e] = c
    return out


def _z_transpose(zt, i, j):
    out = {}
    for e, c in zt.items():
        ne = list(e)
        ne[i], ne[j] = ne[j], ne[i]
        out[tuple(ne)] = c
    return out


def _z_mul_binomial(zt, i, j, cpoly):
    """Multiply by the binomial v_i + cpoly * v_j."""
    neg = cpoly == _M_ONE
    out = {}
    for e, c in zt.items():
        ne = list(e)
        ne[i] += 1
        k1 = tuple(ne)
        s = out.get(k1)
        if s is None:
            out[k1] = c
        else:
            s = s + c
            if s.is_zero():
                del out[k1]
            else:
                out[k1] = s
        ne[i] -= 1
        ne[j] += 1
        k2 = tuple(ne)
        s = out.get(k2)
        if s is None:
            out[k2] = -c if neg else c * cpoly
        else:
            s = s - c if neg else s + c * cpoly
            if s.is_zero():
                del out[k2]
            else:
                out[k2] = s
    return out


def _z_div_binomial(zt, i, j, cpoly):
    """Divide exactly by v_i + cpoly * v_j with i < j.

    The terms that agree outside (i, j) and in s = e_i + e_j form a line.
    With f_k the coefficient of v_i^{s-k} v_j^k on a line, the quotient is
    g_k = f_k - cpoly * g_{k-1} and the remainder at v_j^s is
    f_s - cpoly * g_{s-1}: f with v_i = -cpoly * v_j substituted.  For
    cpoly = -1 the quotient is a running sum.

    Returns (quotient, remainder), the remainder None when it is zero.
    """
    lines = {}
    for e, c in zt.items():
        s = e[i] + e[j]
        key = e[:i] + (0,) + e[i + 1:j] + (s,) + e[j + 1:]
        line = lines.get(key)
        if line is None:
            line = lines[key] = [None] * (s + 1)
        line[e[j]] = c
    neg = cpoly == _M_ONE
    quo, rem = {}, {}
    for key, line in lines.items():
        s = len(line) - 1
        ne = list(key)
        g = None
        for k, f in enumerate(line):
            if g is not None:
                if neg:
                    f = g if f is None else f + g
                else:
                    cg = g * cpoly
                    f = -cg if f is None else f - cg
            if f is not None:
                if f.is_zero():
                    f = None
                elif k == s:
                    rem[key] = f
                else:
                    ne[i], ne[j] = s - 1 - k, k
                    quo[tuple(ne)] = f
            g = f
    return quo, (rem or None)


def _z_to_poly(space, zt, den0, irreducibles):
    """The polynomial with coefficients c / (den0 * prod(irreducibles)).

    Each distinct numerator is reduced once: over ``den0`` (no gcd when it
    is 1), then by one trial division per irreducible factor.
    """
    memo = {}
    terms = {}
    for e, c in zt.items():
        v = memo.get(c)
        if v is None:
            v = QTScalar(c, den0)
            for p in irreducibles:
                v = over_irreducible(v, p)
            memo[c] = v
        if not v.is_zero():
            terms[e] = v
    return MultiPoly._raw(space, terms)


def _require_block_symmetric(f, block, what):
    for a, b in zip(block, block[1:]):
        if f.swap_variables(a, b) != f:
            raise NotSymmetricError(f"input not symmetric in the {what} block")


def _divide_factors(space, total, factors, den0, irreducibles):
    """Divide ``total`` by every binomial factor; collect witnesses."""
    witnesses = []
    for (a, b, cpoly) in factors:
        total, rem = _z_div_binomial(total, a, b, cpoly)
        name = f"{space.var_name(a)}-{space.var_name(b)}" if cpoly == _M_ONE else \
            f"{space.var_name(a)}+({cpoly})*{space.var_name(b)}"
        if rem is not None:
            raise NonDivisibleError(
                f"operator sum not divisible by {name}; input outside the operator domain",
                remainder=_z_to_poly(space, rem, den0, irreducibles))
        witnesses.append(name)
    return total, witnesses


def _pairs(indices):
    return [(a, b) for ai, a in enumerate(indices) for b in indices[ai + 1:]]


def _antisymmetrized(start, block, row, pairs):
    """The block sum of an operator numerator over the Vandermonde product.

    With i0 = block[0], multiplies ``start`` by the distinguished row
    prod_{(k, c) in row} (v_i0 + c v_k) and by every pair (v_a - v_b) of
    ``pairs`` that does not involve i0, then antisymmetrizes over the block:
    the terms for the other i in the block are the transpositions (i0 i),
    which flip the sign of the Vandermonde product (Macdonald, Symmetric
    Functions and Hall Polynomials, VI.3).
    """
    i0 = block[0]
    g = start
    for k, cpoly in row:
        g = _z_mul_binomial(g, i0, k, cpoly)
    for (a, b) in pairs:
        if a != i0 and b != i0:
            g = _z_mul_binomial(g, a, b, _M_ONE)
    total = dict(g)
    for i in block[1:]:
        _z_sub_into(total, _z_transpose(g, i0, i))
    return total


def _deformed_sum(space, start):
    """(1-t) sum_i A_i D start(x_i) + (1-q) sum_j B_j D start(y_j), where D is
    the Vandermonde product over all n + m variables and ``start(i, base)``
    is the term dict acted on at the distinguished variable i.  Returns the
    sum and the pairs of D."""
    n, m = space.n, space.m
    xs, ys = list(space.x_indices()), list(space.y_indices())
    pairs = _pairs(xs) + _pairs(ys) + [(a, b) for a in xs for b in ys]
    total = {}
    if n:
        row = [(k, _M_T) for k in xs[1:]] + [(j, _M_Q) for j in ys]
        total = _z_scale(_antisymmetrized(start(xs[0], "q"), xs, row, pairs),
                         P_ONE - P_T)
    if m:
        # the n cross pairs (x_a - y_j0) of D read as (y_j0 - x_a) in the
        # row of y_j0, a sign (-1)^n; the subtraction below adds the y half
        row = [(i, _M_T) for i in xs] + [(l, _M_Q) for l in ys[1:]]
        sign = P_Q - P_ONE if n % 2 == 0 else P_ONE - P_Q
        _z_sub_into(total, _z_scale(
            _antisymmetrized(start(ys[0], "t"), ys, row, pairs), sign))
    return total, pairs


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
    block = list(block)
    _require_block_symmetric(f, block, "operator")
    if not block or f.is_zero():
        return OperatorResult(MultiPoly.zero(space), [])
    zt, den0 = _clear_denominators(f)
    i0 = block[0]
    pairs = _pairs(block)
    total = _antisymmetrized(_z_sub(_z_shift(zt, i0, "q"), zt), block,
                             [(k, _M_T) for k in block[1:]], pairs)
    factors = [(a, b, _M_ONE) for (a, b) in pairs]
    irreducibles = (_ONE_MINUS_Q,)
    total, witnesses = _divide_factors(space, total, factors, den0, irreducibles)
    return OperatorResult(_z_to_poly(space, total, den0, irreducibles), witnesses)


def apply_mr(f, block=None):
    return apply_mr_detailed(f, block).value


def mr_eigenvalue(lam):
    """(1/(1-q)) sum_i (q^{lambda_i} - 1) t^{i-1}; independent of the variable count."""
    lam = pt.as_partition(lam)
    num = QTPolynomial._raw({})
    for i, p in enumerate(lam):
        num = num + (QTPolynomial.monomial(p, i) - QTPolynomial.monomial(0, i))
    return QTScalar(num, P_ONE - P_Q)


# ---------------------------------------------------------------------------
# the deformed operator on two alphabets
# ---------------------------------------------------------------------------

def apply_deformed_mr_detailed(f, check=False):
    """Apply the deformed operator mixing q-shifts in x and t-shifts in y.

    The input must be symmetric in each block; with ``check`` it is also
    verified to satisfy the quasi-invariance condition up front.  Otherwise
    a violation surfaces as a NonDivisibleError from the cross factors.
    """
    space = f.space
    if space.kind != "xy":
        raise ValueError("the deformed operator acts on xy-spaces")
    _require_block_symmetric(f, list(space.x_indices()), "x")
    _require_block_symmetric(f, list(space.y_indices()), "y")
    if check:
        from .symfun import in_deformed_algebra
        if not in_deformed_algebra(f):
            raise NotSymmetricError("input is not in the deformed algebra")
    if f.is_zero():
        return OperatorResult(MultiPoly.zero(space), [])
    zt, den0 = _clear_denominators(f)
    total, pairs = _deformed_sum(
        space, lambda i, base: _z_sub(_z_shift(zt, i, base), zt))
    factors = [(a, b, _M_ONE) for (a, b) in pairs]
    irreducibles = (_ONE_MINUS_Q, _ONE_MINUS_T)
    total, witnesses = _divide_factors(space, total, factors, den0, irreducibles)
    return OperatorResult(_z_to_poly(space, total, den0, irreducibles), witnesses)


def apply_deformed_mr(f, check=False):
    return apply_deformed_mr_detailed(f, check).value


# ---------------------------------------------------------------------------
# Hecke operators and the commuting difference operators built from them
# ---------------------------------------------------------------------------

def hecke_T(f, i):
    """T_i = 1 + ((v_i - t v_{i+1})/(v_i - v_{i+1})) (s_i - 1), i is 1-based.

    Always polynomial: s_i f - f is antisymmetric in the pair, hence
    divisible by their difference.
    """
    space = f.space
    a, b = i - 1, i
    if not (1 <= i <= space.dim - 1):
        raise ValueError(f"T_{i} needs 1 <= i <= {space.dim - 1}")
    diff = f.swap_variables(a, b) - f
    if diff.is_zero():
        return f
    g = diff.exact_divide(MultiPoly.binomial(space, a, b, -S_ONE))
    return f + MultiPoly.binomial(space, a, b, -S_T) * g


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
    one = {(0,) * (n + m): P_ONE}
    total, pairs = _deformed_sum(VarSpace.xy(n, m), lambda i, base: one)
    denom = one
    for (a, b) in pairs:
        denom = _z_mul_binomial(denom, a, b, _M_ONE)
    # identity times (1-t)*D: rhs is (1 - t^n q^m) * D
    if _z_sub(total, _z_scale(denom, P_ONE - QTPolynomial.monomial(m, n))):
        return False

    # the one-block sum at N = n + m over the same D:
    # (t - 1) * sum_l C_l * D == (t^N - 1) * D
    N = n + m
    block = list(range(N))
    sw = _antisymmetrized(one, block, [(k, _M_T) for k in block[1:]], pairs)
    lhs = _z_scale(sw, P_T - P_ONE)
    return not _z_sub(lhs, _z_scale(denom, QTPolynomial.monomial(0, N) - P_ONE))
