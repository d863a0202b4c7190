"""Young-diagram combinatorics.

Partitions are plain tuples of weakly decreasing positive integers; the
empty partition is ().  Boxes are addressed (row, column), 1-based, so a
box s = (i, j) of lambda satisfies 1 <= i <= len(lambda), 1 <= j <= lambda[i-1].
"""

import operator

from .errors import InvalidPartitionError
from .scalar import (P_ONE, QTPolynomial, QTScalar, S_ZERO, one_minus_q,
                     one_minus_t, qt_monomial)


def as_partition(seq):
    """Validate and normalize a partition given as any integer iterable; a
    float, a string or any other non-integer part is refused, never
    truncated."""
    try:
        parts = tuple(map(operator.index, seq))
    except TypeError:
        raise InvalidPartitionError(f"parts must be integers: {seq!r}") from None
    if any(x <= 0 for x in parts):
        raise InvalidPartitionError(f"parts must be positive: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise InvalidPartitionError(f"parts must be weakly decreasing: {parts}")
    return parts


def weight(lam):
    return sum(lam)


def check_parts(lam, N):
    """Refuse a partition with more than N parts."""
    if len(lam) > N:
        raise InvalidPartitionError(f"{lam} needs more than {N} variables")


def part(lam, i):
    """The i-th part (1-based), zero beyond the length."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def conjugate(lam):
    """Transpose of the diagram; an involution."""
    if not lam:
        return ()
    out = []
    for j in range(1, lam[0] + 1):
        out.append(sum(1 for p in lam if p >= j))
    return tuple(out)


def contains(mu, lam):
    """True iff the diagram of mu is contained in the diagram of lam."""
    return all(part(mu, i) <= part(lam, i) for i in range(1, len(mu) + 1))


def dominance_leq(mu, lam):
    """Dominance order on partitions of equal weight: prefix sums of mu bounded by lam's."""
    if weight(mu) != weight(lam):
        raise InvalidPartitionError("dominance order needs equal weights")
    sm = sl = 0
    for i in range(1, max(len(mu), len(lam)) + 1):
        sm += part(mu, i)
        sl += part(lam, i)
        if sm > sl:
            return False
    return True


def boxes(lam):
    """All boxes (i, j) of the diagram, row by row."""
    return [(i, j) for i, p in enumerate(lam, start=1) for j in range(1, p + 1)]


def arm_leg(lam, box):
    """The statistics (a, l, a', l') of a box inside the diagram.

    a counts boxes strictly to the right, l strictly below; the primed
    versions count strictly to the left and strictly above.
    """
    i, j = box
    if not (1 <= i <= len(lam) and 1 <= j <= lam[i - 1]):
        raise InvalidPartitionError(f"box {box} outside diagram of {lam}")
    conj = conjugate(lam)
    return lam[i - 1] - j, conj[j - 1] - i, j - 1, i - 1


def n_stat(lam):
    """n(lambda) = sum over rows of (i - 1) * lambda_i."""
    return sum((i - 1) * p for i, p in enumerate(lam, start=1))


def hook_product(lam):
    """The (q, t)-hook normalization constant of a diagram.

    t^{n(lambda')} q^{n(lambda)} * product over boxes of (q^{a+1} - t^{l});
    a polynomial scalar.  This is the value the interpolation polynomial of
    shape lambda takes at its own evaluation point.
    """
    lam = as_partition(lam)
    prod = QTScalar._raw(
        QTPolynomial.monomial(n_stat(lam), 0) * QTPolynomial.monomial(0, n_stat(conjugate(lam))),
        P_ONE)
    for box in boxes(lam):
        a, l, _, _ = arm_leg(lam, box)
        factor = QTScalar(QTPolynomial.monomial(a + 1, 0) - QTPolynomial.monomial(0, l))
        prod = prod * factor
    return prod


def hook_ratio(lam):
    """H(lambda) / H(lambda') with q and t exchanged in the denominator: the
    scalar relating P_lam and the interpolation polynomial of shape lambda to
    their conjugates under the parameter swap."""
    return hook_product(lam) / hook_product(conjugate(lam)).swap_qt()


def in_fat_hook(lam, n, m):
    """True iff lambda_{n+1} <= m, i.e. the diagram fits the fat (n, m)-hook."""
    if n < 0 or m < 0:
        raise ValueError("n, m must be nonnegative")
    return part(lam, n + 1) <= m


def partitions_of(d, max_length=None, fat_hook=None):
    """All partitions of weight d, in descending lexicographic order.

    Optional constraints: at most ``max_length`` parts, or membership in the
    fat hook ``fat_hook=(n, m)``.
    """
    if d < 0:
        raise ValueError("weight must be nonnegative")
    results = []

    def rec(remaining, cap, acc):
        if remaining == 0:
            results.append(tuple(acc))
            return
        if max_length is not None and len(acc) == max_length:
            return
        for k in range(min(cap, remaining), 0, -1):
            acc.append(k)
            rec(remaining - k, k, acc)
            acc.pop()

    rec(d, d, [])
    if fat_hook is not None:
        n, m = fat_hook
        results = [lam for lam in results if in_fat_hook(lam, n, m)]
    return results


def partitions_up_to(d):
    """All partitions of weight 0..d, grouped weight by weight."""
    return [lam for k in range(d + 1) for lam in partitions_of(k)]


def subpartitions(lam):
    """All mu with diagram contained in lambda's, in descending lex order."""
    results = []

    def rec(i, prev, acc):
        results.append(tuple(acc))
        if i == len(lam):
            return
        for k in range(1, min(prev, lam[i]) + 1):
            acc.append(k)
            rec(i + 1, k, acc)
            acc.pop()

    rec(0, lam[0] if lam else 0, [])
    return sorted(set(results), reverse=True)


def horizontal_strips_below(lam):
    """All mu with lam/mu a horizontal strip, i.e. lam_{i+1} <= mu_i <= lam_i."""
    if not lam:
        return [()]
    choices = []
    for i in range(1, len(lam) + 1):
        lo = max(part(lam, i + 1), 0)
        hi = lam[i - 1]
        choices.append(range(hi, lo - 1, -1))
    out = []

    def rec(i, acc):
        if i == len(choices):
            out.append(tuple(p for p in acc if p > 0))
            return
        for v in choices[i]:
            if acc and v > acc[-1]:
                continue
            acc.append(v)
            rec(i + 1, acc)
            acc.pop()

    rec(0, [])
    return out


def conjugation_sum_identity(lam):
    """Exact identity relating the two ways of summing q^{i-1} t^{j-1} over a diagram.

    Returns (lhs, rhs): (1/(1-q)) * sum_j (q^{lambda'_j} - 1) t^{j-1} and
    (1/(1-t)) * sum_i (t^{lambda_i} - 1) q^{i-1}; they are equal for every
    partition.
    """
    P = QTPolynomial
    conj = conjugate(lam)
    lhs = S_ZERO
    for j, cpart in enumerate(conj, start=1):
        term = QTScalar(P.monomial(cpart, 0) - P_ONE) * QTScalar._raw(P.monomial(0, j - 1), P_ONE)
        lhs = lhs + term
    lhs = lhs / one_minus_q()
    rhs = S_ZERO
    for i, p in enumerate(lam, start=1):
        term = QTScalar(P.monomial(0, p) - P_ONE) * QTScalar._raw(P.monomial(i - 1, 0), P_ONE)
        rhs = rhs + term
    rhs = rhs / one_minus_t()
    return lhs, rhs


def normalization_alignment(lam):
    """Monomial scalar aligning the branching-normalized interpolation
    polynomial with the hook normalization: q^{n(lam) - n(lam')} t^{n(lam') - n(lam)}."""
    a = n_stat(lam)
    b = n_stat(conjugate(lam))
    return qt_monomial(a - b, b - a)
