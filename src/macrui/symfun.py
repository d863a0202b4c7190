"""Symmetric-function bases and the restriction homomorphisms.

Provides the monomial and power-sum bases with exact conversions, the
shifted power sums and expansions in them, the parameter-ratio
automorphism p_r -> ((1-q^r)/(1-t^r)) p_r, the deformed Newton sums, and
the two restriction maps onto the two-alphabet polynomial algebra: one for
symmetric functions and one for shifted symmetric functions.
"""

from functools import cache

from .errors import NotSymmetricError, SingularSystemError
from . import partitions as pt
from .linalg import solve_square
from .polyring import (MultiPoly, VarSpace, _cleared, _combination,
                       _numerator_sums, linear_combination)
from .scalar import (P_ONE, QTScalar, S_ONE, S_Q, S_T, S_ZERO, _as_scalar,
                     one_minus_q, one_minus_t, q_pow, qt_ratio, t_pow)


class SymExpansion:
    """Coefficients of a symmetric (or shifted symmetric) quantity in a basis.

    ``basis`` is one of "m", "p", "pstar"; ``N`` records the variable-count
    context the expansion was computed in; ``coeffs`` maps partitions
    (tuples) to nonzero QTScalar values.  ``_clearings`` is the memo of
    ``expansion_value``: the coefficients over their common denominator, one
    form per space kind, filled on first use (two threads that race store
    equal forms).
    """

    __slots__ = ("basis", "N", "coeffs", "_clearings")

    def __init__(self, basis, N, coeffs=None):
        if basis not in ("m", "p", "pstar"):
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.N = N
        clean = {}
        if coeffs:
            for lam, c in coeffs.items():
                lam = pt.as_partition(lam)
                c = _as_scalar(c)
                if not c.is_zero():
                    clean[lam] = c
        self.coeffs = clean
        self._clearings = {}

    def __eq__(self, other):
        return (isinstance(other, SymExpansion) and self.basis == other.basis
                and self.coeffs == other.coeffs)

    def get(self, lam):
        return self.coeffs.get(tuple(lam), S_ZERO)

    def degrees(self):
        return sorted({sum(lam) for lam in self.coeffs})

    def __repr__(self):
        inner = ", ".join(f"{lam}: {c}" for lam, c in sorted(self.coeffs.items()))
        return f"SymExpansion({self.basis!r}, N={self.N}, {{{inner}}})"


# ---------------------------------------------------------------------------
# classical bases
# ---------------------------------------------------------------------------

def _distinct_arrangements(parts, N):
    """All distinct ways to place the multiset ``parts`` into N slots (rest zero)."""
    from collections import Counter

    counts = Counter(parts)
    counts[0] = N - len(parts)
    values = sorted(counts)
    slots = [0] * N
    out = []

    def rec(i):
        if i == N:
            out.append(tuple(slots))
            return
        for v in values:
            if counts[v]:
                counts[v] -= 1
                slots[i] = v
                rec(i + 1)
                counts[v] += 1

    rec(0)
    return out


def monomial_symmetric(lam, N):
    """m_lambda in N variables: the orbit sum of the exponent vector lambda."""
    lam = pt.as_partition(lam)
    if len(lam) > N:
        raise ValueError(f"partition {lam} needs more than {N} variables")
    space = VarSpace.z(N)
    return MultiPoly._raw(space,
                          {e: S_ONE for e in _distinct_arrangements(lam, N)})


def power_sum(r, N):
    """p_r = sum of r-th powers in N variables."""
    return _generator("p", VarSpace.z(N), r)[1]


def power_sum_product(lam, N):
    """p_lambda = product of p_{lambda_k}; the empty product is 1."""
    return _cleared_products("p", VarSpace.z(N), [pt.as_partition(lam)])[0][1]


def to_monomial_expansion(f):
    """Exact m-basis coefficients of a symmetric polynomial in a z-space."""
    if f.space.kind != "z":
        raise ValueError("monomial expansions live in z-spaces")
    if not f.is_symmetric("all"):
        raise NotSymmetricError("not symmetric; no monomial expansion")
    coeffs = {}
    for e, c in f.terms.items():
        rep = tuple(sorted(e, reverse=True))
        if rep == e:
            coeffs[tuple(x for x in rep if x)] = c
    return SymExpansion("m", f.space.n, coeffs)


def from_monomial_expansion(e):
    if e.basis != "m":
        raise ValueError("expected an m-expansion")
    return linear_combination(
        VarSpace.z(e.N),
        [(c, monomial_symmetric(lam, e.N)) for lam, c in e.coeffs.items()])


def _row_fillings(parts, rows, memo):
    """The number of maps from ``parts`` to the rows whose row sums are
    ``rows``: each part goes to one row with room for it.  ``rows`` is sorted
    and holds only the rows still open; rows of equal room are distinct, so a
    room that r rows share counts r times."""
    if not parts:
        return 1
    key = (parts, rows)
    count = memo.get(key)
    if count is None:
        k, rest = parts[0], parts[1:]
        count = 0
        for room in set(rows):
            if room >= k:
                left = list(rows)
                left.remove(room)
                if room > k:
                    left.append(room - k)
                count += rows.count(room) * _row_fillings(rest, tuple(sorted(left)), memo)
        memo[key] = count
    return count


def _power_in_monomial_matrix(d):
    """For each mu of weight d, the m-expansion of p_mu: the coefficient of
    m_lam is the number of maps from the parts of mu to the rows of lam
    whose row sums are lam (Macdonald, SFHP I.6).  The counts do not depend
    on the number of variables, and no p_mu is rendered."""
    mus = pt.partitions_of(d)
    memo = {}
    table = {}
    for mu in mus:
        row = {}
        for lam in mus:
            count = _row_fillings(mu, tuple(sorted(lam)), memo)
            if count:
                row[lam] = QTScalar.from_int(count)
        table[mu] = row
    return mus, table


@cache
def _monomial_in_power_matrix(d):
    """The partitions mu of weight d, the p-expansions of the m_lam as
    integer columns, and their one integer denominator D:
    columns[lam][mu] / D is the coefficient of p_mu in m_lam.  The inverse
    of the counted p -> m matrix, from one solve with the unit columns."""
    mus, table = _power_in_monomial_matrix(d)
    matrix = [[table[mu].get(lam, S_ZERO) for mu in mus] for lam in mus]
    units = [[S_ONE if lam == col else S_ZERO for lam in mus] for col in mus]
    # solution j is the p-expansion of m_{mus[j]}
    nums, den = _cleared({(lam, mu): c for lam, x in zip(mus, solve_square(matrix, units))
                          for mu, c in zip(mus, x)})
    return mus, {lam: {mu: QTScalar._raw(nums[lam, mu], P_ONE) for mu in mus
                       if nums[lam, mu]} for lam in mus}, den


def monomial_to_power_expansion(e):
    """Rewrite an m-expansion exactly in power-sum products.

    Requires the variable context N to be at least the top degree, so the
    p_mu with |mu| <= degree are linearly independent.  Each degree is one
    cleared combination of the cached p-expansions of the m_lam.
    """
    if e.basis != "m":
        raise ValueError("expected an m-expansion")
    out = {}
    for d in e.degrees():
        if d > e.N:
            raise SingularSystemError(
                f"power-sum conversion at degree {d} needs at least {d} variables")
        mus, columns, den = _monomial_in_power_matrix(d)
        sums = _combination(((e.coeffs[lam], columns[lam]) for lam in mus
                             if lam in e.coeffs), den)
        out.update((mu, sums[mu]) for mu in mus if mu in sums)
    return SymExpansion("p", e.N, out)


def qt_ratio_automorphism(e):
    """Scale the coefficient of p_mu by prod_k (1 - q^{mu_k}) / (1 - t^{mu_k})."""
    if e.basis != "p":
        raise ValueError("the automorphism acts on p-expansions")
    out = {}
    for mu, c in e.coeffs.items():
        factor = S_ONE
        for k in mu:
            factor = factor * qt_ratio(k)
        out[mu] = c * factor
    return SymExpansion("p", e.N, out)


# ---------------------------------------------------------------------------
# the generator images: every rendering, restriction and value of a p- or
# p*-expansion
# ---------------------------------------------------------------------------

@cache
def _generator(basis, space, r):
    """s_r and the cleared image g_r of p_r (``basis`` "p") or p*_r ("pstar")
    in ``space``, with Z[q, t] coefficients.  With e = 0 for p_r and 1 for p*_r,

        g_r = s_r sum_i (x_i^r - e) t^{e r (i-1)}
              + (1 - q^r) sum_j (y_j^r - e t^{rn}) q^{e r (j-1)}.

    In a z-space (no y) s_r = 1 and g_r is the power sum itself; in an
    xy-space s_r = 1 - t^r and g_r is s_r times the restriction of the
    generator.  The terms are written out rather than summed as packed
    integers, whose size grows with r^2: r reaches 102,401, the degree of the
    deformed Newton sum that ``apply-deformed-mr`` refuses."""
    e, n, dim = int(basis == "pstar"), space.n, space.dim
    if r < 1:
        raise ValueError(f"{'shifted ' if e else ''}power sums need r >= 1")
    s_r = S_ONE if space.kind == "z" else one_minus_t(r)
    weights = ([s_r * t_pow(e * r * i) for i in range(n)]
               + [one_minus_q(r) * q_pow(e * r * j) for j in range(space.m)])
    terms = {}
    # the constant first: products keep this term order, and with the constant
    # last, `shifted --lambda 3,2,1 --N 9` peaked about 0.4 MB higher
    if e:
        terms[(0,) * dim] = -(sum(weights[:n], S_ZERO)
                              + t_pow(r * n) * sum(weights[n:], S_ZERO))
    terms.update((tuple(r if k == i else 0 for k in range(dim)), c)
                 for i, c in enumerate(weights))
    return s_r, MultiPoly(space, terms)


def _cleared_products(basis, space, mus, point=None):
    """s_mu and the cleared image prod_{r in mu} g_r, or its value at
    ``point`` when one is given, for each mu in ``mus``.  Each g_r is taken
    (and evaluated) once, and each product extends that of mu without its
    last part; the products are kept for this call only, since in a z-space
    they grow with N."""
    @cache
    def product(mu):
        if not mu:
            return S_ONE, MultiPoly.one(space) if point is None else S_ONE
        if len(mu) == 1:
            s_r, g_r = _generator(basis, space, mu[0])
            return s_r, g_r if point is None else g_r.evaluate(point)
        (s, v), (s_r, g_r) = product(mu[:-1]), product(mu[-1:])
        return s * s_r, v * g_r

    out = [product(mu) for mu in mus]
    product.cache_clear()  # the recursion makes a cycle that refcounting would not free
    return out


@cache
def _cleared_image(basis, space, mu):
    """s_mu and the cleared image of the generator product over mu in the
    xy-space ``space``, built on that of mu[:-1] and shared by every
    restriction that meets mu.  A z-space rendering calls
    ``_cleared_products`` instead, since its products grow with N."""
    if not mu:
        return S_ONE, MultiPoly.one(space)
    (s, image), (s_r, g_r) = (_cleared_image(basis, space, mu[:-1]),
                              _generator(basis, space, mu[-1]))
    return s * s_r, image * g_r


def _image_sum(e, space, images):
    """The image of the expansion ``e`` in ``space``: the sum of
    (c_mu / s_mu) times the cleared image of mu, where ``images`` gives
    (s_mu, image) for each mu of ``e`` in turn, over one common denominator.
    Reducing c_mu / s_mu before it joins that denominator keeps it small,
    which saves more in the final reductions than the gcd costs."""
    return linear_combination(space, [(c / s, image) for c, (s, image)
                                      in zip(e.coeffs.values(), images)])


def deformed_newton_sum(r, n, m):
    """p_r(x, y, q, t) = sum x_i^r + ((1-q^r)/(1-t^r)) * sum y_j^r, the
    restriction of p_r."""
    s_r, g_r = _generator("p", VarSpace.xy(n, m), r)
    return g_r.scale(s_r.inverse())


def _is_sorted(exps):
    return all(a >= b for a, b in zip(exps, exps[1:]))


@cache
def _cleared_representatives(mu, n, m):
    """s_mu and the block-sorted terms of the cleared image of p_mu: those
    whose x-part and y-part are each weakly decreasing.  The image is
    symmetric in x and, separately, in y, so these terms determine it."""
    s_mu, image = _cleared_image("p", VarSpace.xy(n, m), mu)
    reps = {e: c for e, c in image.terms.items()
            if _is_sorted(e[:n]) and _is_sorted(e[n:])}
    return s_mu, MultiPoly._raw(image.space, reps)


def _render_orbits(reps):
    """The polynomial symmetric in x and, separately, in y whose block-sorted
    terms are ``reps``: each coefficient is copied over the distinct
    arrangements of its x-part times those of its y-part."""
    n, m = reps.space.n, reps.space.m
    terms = {}
    for e, c in reps.terms.items():
        ys = _distinct_arrangements([k for k in e[n:] if k], m)
        for ex in _distinct_arrangements([k for k in e[:n] if k], n):
            for ey in ys:
                terms[ex + ey] = c
    return MultiPoly._raw(reps.space, terms)


def restrict_p_expansion(e, n, m):
    """Image of a p-expansion under p_r -> deformed Newton sum in (n, m) variables.

    The image is symmetric in x and, separately, in y, so each coefficient
    is computed once, at the block-sorted exponent of its orbit, and then
    copied over the orbit."""
    if e.basis != "p":
        raise ValueError("restriction acts on p-expansions")
    return _render_orbits(_image_sum(e, VarSpace.xy(n, m), [
        _cleared_representatives(mu, n, m) for mu in e.coeffs]))


def in_deformed_algebra(f):
    """Membership test for the quasi-invariant two-alphabet algebra.

    Requires symmetry in each block separately, plus the shift condition
    T_{q,x_i} f = T_{t,y_j} f on every hyperplane x_i = y_j.  By block
    symmetry it suffices to check the (1, 1) pair, which is what we do
    after verifying both block symmetries.
    """
    space = f.space
    if space.kind != "xy":
        raise ValueError("membership test needs an xy-space")
    if not (f.is_symmetric("x") and (space.m == 0 or f.is_symmetric("y"))):
        return False
    if space.n == 0 or space.m == 0:
        return True
    i, j = 0, space.n
    shifted = f.shift_variable(i, S_Q) - f.shift_variable(j, S_T)
    restricted = shifted.substitute({j: (i, S_ONE)})
    return restricted.is_zero()


# ---------------------------------------------------------------------------
# shifted power sums
# ---------------------------------------------------------------------------

def shifted_power_sum(r, N):
    """p*_r = sum_i (x_i^r - 1) t^{r(i-1)} in N variables."""
    return _generator("pstar", VarSpace.z(N), r)[1]


def _to_unshifted_coordinates(f):
    """Rewrite f(x) as a polynomial in u_i = x_i t^{i-1}, reusing the slots."""
    subs = {i: (i, t_pow(i).inverse()) for i in range(1, f.space.dim)}
    return f.substitute(subs) if subs else f


def is_shifted_symmetric(f):
    """True iff f is symmetric in the variables x_i t^{i-1}."""
    return _to_unshifted_coordinates(f).is_symmetric("all")


def to_shifted_power_expansion(f):
    """Exact expansion of a shifted symmetric polynomial in p*-products.

    Works down the degree filtration: the top homogeneous part, rewritten
    in the shifted coordinates, is an ordinary symmetric polynomial whose
    p-expansion gives the top p*-coefficients; subtract and recurse.  The
    result is verified by reconstruction.
    """
    if f.space.kind != "z":
        raise ValueError("shifted expansions live in z-spaces")
    N = f.space.n
    out = {}
    work = f
    while True:
        d = work.degree()
        if d <= 0:
            break
        if d > N:
            raise SingularSystemError(
                f"shifted expansion at degree {d} needs at least {d} variables")
        top = _to_unshifted_coordinates(work.homogeneous_component(d))
        if not top.is_symmetric("all"):
            raise NotSymmetricError("not shifted symmetric")
        layer = SymExpansion("pstar", N, monomial_to_power_expansion(
            to_monomial_expansion(top)).coeffs)
        out.update(layer.coeffs)
        work = work - from_shifted_power_expansion(layer, N)
        if work.degree() >= d:
            raise NotSymmetricError("shifted expansion failed to reduce the degree")
    const = work.constant_term()
    if not const.is_zero():
        out[()] = const
    expansion = SymExpansion("pstar", N, out)
    if from_shifted_power_expansion(expansion, N) != f:
        raise NotSymmetricError("shifted expansion failed reconstruction")
    return expansion


def from_shifted_power_expansion(e, N):
    if e.basis != "pstar":
        raise ValueError("expected a p*-expansion")
    space = VarSpace.z(N)
    return _image_sum(e, space, _cleared_products("pstar", space, e.coeffs))


def restrict_shifted_expansion(e, n, m):
    """Image of a p*-expansion under the shifted restriction map
    p*_r -> sum_i (x_i^r - 1) t^{r(i-1)}
             + ((1-q^r)/(1-t^r)) sum_j (y_j^r - t^{rn}) q^{r(j-1)}."""
    if e.basis != "pstar":
        raise ValueError("shifted restriction acts on p*-expansions")
    space = VarSpace.xy(n, m)
    return _image_sum(e, space, [_cleared_image("pstar", space, mu) for mu in e.coeffs])


def expansion_value(e, space, point):
    """The value at ``point``, whose coordinates lie in Z[q, t], of a p- or
    p*-expansion rendered in a z-space, or of its restriction to an xy-space,
    with nothing rendered: sum_mu (c_mu / s_mu) prod_{r in mu} g_r(point).

    s_mu is 1 in a z-space and depends on mu alone in an xy-space, so the
    c_mu / s_mu are put over their common denominator once per expansion and
    space kind, and each value sums the numerators and reduces once."""
    if e.basis == "m":
        raise ValueError("values are read off p- and p*-expansions")
    values = _cleared_products(e.basis, space, e.coeffs, point)
    clearing = e._clearings.get(space.kind)
    if clearing is None:
        clearing = e._clearings[space.kind] = _cleared(
            e.coeffs if space.kind == "z"
            else {mu: c / s for (mu, c), (s, _) in zip(e.coeffs.items(), values)})
    nums, den = clearing
    return _numerator_sums(((num, {(): v}) for num, (_, v) in zip(nums.values(), values)),
                           den).get((), S_ZERO)
