"""The cleared sums against the routes they replaced.

Every change of basis in the library sums through one kernel,
``polyring._combination``: the scalars are put over one common denominator
(``over_common_denominator``), the Z[q, t] numerators are summed as
Kronecker-packed integers, and each distinct sum is reduced once.
``MultiPoly.__mul__`` clears two factors of two or more terms the same way,
sums the numerator products as term dicts and reduces each distinct sum
once, and
``expansion_value`` clears an expansion once per space kind.  The
references below are the hand-written routes each caller used before:
``over_common_denominator`` joins every new denominator with a gcd, the
numerators are added as term dicts, ``solve_square`` runs Gauss-Jordan on
the right-hand side as given, ``monomial_to_power_expansion`` solves the
p -> m system for each expansion, the triangular eigen-solve adds its
products one at a time, a product of polynomials multiplies and adds
reduced coefficients term by term, and a value at q^mu sums the p*-products
written out from their formula.  Guards pin the modules that clear
denominators themselves and those that sum term dicts in place.  Each pair
must agree exactly.
"""

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from macrui import partitions as pt, scalar, shifted
from macrui.errors import SingularSystemError
from macrui.linalg import _row_reduce, solve_square
from macrui.macdonald import (_mr_monomial_expansion, macdonald_m_expansion,
                              macdonald_p_expansion)
from macrui.operators import mr_eigenvalue
from macrui.polyring import (MultiPoly, VarSpace, _add_into, _combination, _pack,
                             _unpack, linear_combination)
from macrui.scalar import (P_ONE, P_ZERO, QTPolynomial, QTScalar, S_ONE, S_T,
                           S_ZERO, _as_scalar, over_common_denominator, qt_gcd,
                           qt_ratio)
from macrui.symfun import (SymExpansion, _cleared_representatives,
                           _monomial_in_power_matrix, _power_in_monomial_matrix,
                           from_monomial_expansion, monomial_symmetric,
                           monomial_to_power_expansion)

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# the reference routes
# ---------------------------------------------------------------------------

def reference_over_common_denominator(scalars):
    scalars = list(scalars)
    den = P_ONE
    for c in scalars:
        d = c.den
        if d.terms == P_ONE.terms or d.terms == den.terms:
            continue
        den = d if den.terms == P_ONE.terms else den * d.exact_divide(qt_gcd(den, d))
    return [c.num if c.den.terms == den.terms else c.num * den.exact_divide(c.den)
            for c in scalars], den


def reference_combination(pairs, den=P_ONE):
    pairs = [(c, vector) for c, vector in pairs if not c.is_zero()]
    mults, common = reference_over_common_denominator(c for c, _ in pairs)
    acc = {}
    for mult, (_, vector) in zip(mults, pairs):
        for key, v in vector.items():
            acc[key] = acc.get(key, P_ZERO) + v.num * mult
    out = {}
    for key, num in acc.items():
        val = QTScalar(num, common * den)
        if not val.is_zero():
            out[key] = val
    return out


def reference_linear_combination(space, pairs):
    return MultiPoly._raw(space, reference_combination(
        (_as_scalar(c), poly.terms) for c, poly in pairs))


def reference_dict_m_to_p(e):
    """The m -> p sum as written out before the kernel: the m-coefficients
    over one denominator, and each p-coefficient summed as a term dict."""
    out = {}
    for d in e.degrees():
        mus, columns, den = _monomial_in_power_matrix(d)
        lams = [lam for lam in mus if lam in e.coeffs]
        nums, common = reference_over_common_denominator(e.coeffs[lam] for lam in lams)
        for mu in mus:
            acc = P_ZERO
            for lam, num in zip(lams, nums):
                k = columns[lam].get(mu)
                if k is not None:
                    acc = acc + num * k.num
            if acc:
                out[mu] = QTScalar(acc, common * den)
    return out


def reference_cleared_m_expansion(lam, N):
    """The eigen-solve with its row sums written out before the kernel."""
    parts = pt.partitions_of(pt.weight(lam), max_length=N)
    clam = mr_eigenvalue(lam)
    u = {lam: S_ONE}
    for mu in parts[parts.index(lam) + 1:]:
        pairs = [(unu, _mr_monomial_expansion(nu, N)[mu]) for nu, unu in u.items()
                 if mu in _mr_monomial_expansion(nu, N)]
        nums, den = reference_over_common_denominator(unu for unu, _ in pairs)
        num = sum((n * c.num for n, (_, c) in zip(nums, pairs)), P_ZERO)
        if num:
            u[mu] = QTScalar(num, den) / (clam - mr_eigenvalue(mu))
    return u


def reference_pstar_value(nu, mu):
    """p*_nu(q^mu) from p*_r = sum_i (x_i^r - 1) t^{r(i-1)}, as a polynomial."""
    value = P_ONE
    for r in nu:
        value = value * sum((QTPolynomial({(r * m, r * i): 1, (0, r * i): -1})
                             for i, m in enumerate(mu)), P_ZERO)
    return value


def reference_interpolation_value(lam, mu):
    """The value at q^mu summed as term dicts over the shape's clearing."""
    expansion = shifted.interpolation_pstar_expansion(lam)
    nums, den = reference_over_common_denominator(expansion.coeffs.values())
    total = P_ZERO
    for num, nu in zip(nums, expansion.coeffs):
        total = total + num * reference_pstar_value(nu, mu)
    return QTScalar(total, den)


def reference_product(f, g):
    """The product as written out before it was cleared: each term product
    reduced, and added into the sum with a reduction per addition."""
    a, b = f.terms, g.terms
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for e1, c1 in a.items():
        _add_into(out, {tuple(x + y for x, y in zip(e1, e2)): c1 * c2
                        for e2, c2 in b.items()})
    return MultiPoly._raw(f.space, out)


def reference_evaluate(f, point):
    values = []
    for e, c in f.terms.items():
        v = c
        for x, k in zip(point, e):
            if k:
                v = v * x ** k
        values.append(v)
    nums, den = reference_over_common_denominator(values)
    return QTScalar(sum(nums, P_ZERO), den)


def reference_solve_square(matrix, rhs):
    n = len(matrix)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    if len(_row_reduce(a, n)) < n:
        raise SingularSystemError("the system has no unique solution")
    return [a[i][n] for i in range(n)]


def reference_monomial_to_power(e):
    out = {}
    for d in e.degrees():
        mus, table = _power_in_monomial_matrix(d)
        matrix = [[table[mu].get(lam, S_ZERO) for mu in mus] for lam in mus]
        rhs = [e.coeffs.get(lam, S_ZERO) for lam in mus]
        for mu, c in zip(mus, reference_solve_square(matrix, rhs)):
            if not c.is_zero():
                out[mu] = c
    return out


def reference_m_expansion(lam, N):
    parts = pt.partitions_of(pt.weight(lam), max_length=N)
    clam = mr_eigenvalue(lam)
    u = {lam: S_ONE}
    for mu in parts[parts.index(lam) + 1:]:
        s = S_ZERO
        for nu, unu in u.items():
            c = _mr_monomial_expansion(nu, N).get(mu)
            if c is not None:
                s = s + unu * c
        if not s.is_zero():
            u[mu] = s / (clam - mr_eigenvalue(mu))
    return u


def _same(a, b):
    """Equal values with equal representations, denominators included."""
    assert a == b
    assert [(c.num.terms, c.den.terms) for c in a] == [(c.num.terms, c.den.terms) for c in b]


# ---------------------------------------------------------------------------
# one module clears and sums
# ---------------------------------------------------------------------------

# the modules that call over_common_denominator themselves; a new hand-written
# cleared sum elsewhere fails the guard below and belongs in the kernel
CLEARING_MODULES = {
    "polyring",  # the kernel: _cleared and _combination
    "linalg",    # solve_square clears each right-hand side, to eliminate on it
}


# the modules that name the in-place term-dict sums: polyring defines them and
# sums MultiPoly terms and product numerators with them, the operator engine
# sums Z[q, t] numerators, and the bitableau sum grouped by inner shape
# (macdonald._inner_shape_sum) adds its products; a new caller sums reduced
# coefficients one addition at a time, and belongs in a kernel
IN_PLACE_SUM_MODULES = {"polyring", "operators", "macdonald"}


def _modules_naming(*targets):
    """The modules of the package whose source names one of ``targets``, by
    import, attribute or bare name."""
    users = set()
    for path in sorted((ROOT / "src" / "macrui").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.attr] if isinstance(node, ast.Attribute)
                     else [node.id] if isinstance(node, ast.Name) else [])
            if set(targets) & set(names):
                users.add(path.stem)
    return users


def test_only_the_kernel_clears_denominators():
    # scalar defines it
    assert _modules_naming("over_common_denominator") - {"scalar"} == CLEARING_MODULES


def test_the_in_place_sums_are_pinned():
    assert _modules_naming("_add_into", "_sub_into") == IN_PLACE_SUM_MODULES


# ---------------------------------------------------------------------------
# common denominators
# ---------------------------------------------------------------------------

def test_common_denominator_of_p_coefficients_matches_reference():
    for d in range(1, 6):
        for lam in pt.partitions_of(d):
            coeffs = list(macdonald_p_expansion(lam).coeffs.values())
            nums, den = over_common_denominator(coeffs)
            ref_nums, ref_den = reference_over_common_denominator(coeffs)
            assert den.terms == ref_den.terms, lam
            assert [n.terms for n in nums] == [n.terms for n in ref_nums], lam


def test_p_coefficients_share_a_primitive_denominator_up_to_content():
    # the case the content join is for: the p-coefficients of P_(3,1,1)
    # have the denominators 4, 5, 6, 8, 12 and 120 times one primitive part
    prim = QTPolynomial({(3, 0): 1, (2, 1): -1, (1, 3): -1, (0, 4): 1})
    contents = set()
    for c in macdonald_p_expansion((3, 1, 1)).coeffs.values():
        k = c.den.exact_divide(prim)
        assert len(k.terms) == 1 and (0, 0) in k.terms
        contents.add(k.terms[(0, 0)])
    assert contents == {4, 5, 6, 8, 12, 120}
    assert over_common_denominator(macdonald_p_expansion((3, 1, 1)).coeffs.values())[1] \
        == prim * 120


def test_content_join_takes_no_gcd(monkeypatch):
    calls = []

    def counted(name, f):
        def wrapper(*args):
            calls.append(name)
            return f(*args)
        return wrapper

    monkeypatch.setattr(scalar, "qt_gcd", counted("qt_gcd", scalar.qt_gcd))
    monkeypatch.setattr(scalar, "_gcd_cofactors",
                        counted("_gcd_cofactors", scalar._gcd_cofactors))
    prim = QTPolynomial({(3, 0): 1, (2, 1): -1, (1, 3): -1, (0, 4): 1})
    num = QTPolynomial({(1, 1): 1, (0, 0): 1})
    scalars = [QTScalar._raw(num * k, prim * c) for k, c in ((1, 4), (3, 5), (1, 6), (7, 120))]
    scalars += [S_ONE, QTScalar._raw(num, P_ONE * 9)]
    nums, den = over_common_denominator(scalars)
    assert calls == []
    assert den == prim * 360
    for n, c in zip(nums, scalars):
        assert QTScalar(n, den) == c


@settings(max_examples=80, deadline=None)
@given(st.lists(st.builds(lambda n, d, k: QTScalar(n, d * k),
                          st.sampled_from([P_ONE, QTPolynomial({(1, 0): 2, (0, 1): -3}),
                                           QTPolynomial({(2, 1): 1, (0, 0): 5})]),
                          st.sampled_from([P_ONE, QTPolynomial({(1, 0): 1, (0, 0): -1}),
                                           QTPolynomial({(1, 0): 1, (0, 1): -1}),
                                           QTPolynomial({(2, 0): 1, (0, 0): -1})]),
                          st.integers(min_value=-12, max_value=12).filter(bool)),
                max_size=6))
def test_common_denominator_matches_reference(scalars):
    nums, den = over_common_denominator(scalars)
    ref_nums, ref_den = reference_over_common_denominator(scalars)
    assert den.terms == ref_den.terms
    assert [n.terms for n in nums] == [n.terms for n in ref_nums]


# ---------------------------------------------------------------------------
# packed numerator sums
# ---------------------------------------------------------------------------

Z2 = VarSpace.z(2)

big_or_small = st.one_of(st.integers(min_value=-5, max_value=5),
                         st.integers(min_value=2 ** 64, max_value=2 ** 90),
                         st.integers(min_value=-2 ** 90, max_value=-2 ** 64))
# gaps between the exponents, so the packed sums have runs of zero digits
gapped = st.sampled_from([0, 1, 2, 9, 23])


@st.composite
def qt_polys(draw, max_terms=4, coeffs=big_or_small):
    return QTPolynomial({(draw(gapped), draw(gapped)): draw(coeffs)
                         for _ in range(draw(st.integers(min_value=0, max_value=max_terms)))})


@st.composite
def den_free_polys(draw):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        e = (draw(st.integers(min_value=0, max_value=3)), draw(gapped))
        terms[e] = QTScalar(draw(qt_polys()))
    return MultiPoly(Z2, terms)


# keys of any hashable kind; a vector may hold zero entries
odd_keys = st.sampled_from(["a", "b", 7, (), (1, 2, 3), frozenset({2}), None])


@st.composite
def keyed_vectors(draw):
    return {draw(odd_keys): QTScalar(draw(qt_polys()))
            for _ in range(draw(st.integers(min_value=0, max_value=4)))}


def _negated(v):
    return -v if isinstance(v, MultiPoly) else {key: -x for key, x in v.items()}


@st.composite
def combinations(draw, vectors=den_free_polys()):
    pairs = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        # small denominators keep the gcds of the reference routes cheap
        den = draw(qt_polys(max_terms=2, coeffs=st.integers(min_value=-5, max_value=5))
                   .filter(lambda p: not p.is_zero()))
        c, v = QTScalar(draw(qt_polys()), den), draw(vectors)
        pairs.append((c, v))
        if draw(st.booleans()):  # a pair that cancels this one exactly
            pairs.append((-c, v) if draw(st.booleans()) else (c, _negated(v)))
    return pairs


@settings(max_examples=100, deadline=None)
@given(combinations(), combinations(keyed_vectors()))
def test_packed_sum_matches_dict_sum(pairs, keyed):
    got = linear_combination(Z2, pairs)
    assert got == reference_linear_combination(Z2, pairs)
    direct = MultiPoly.zero(Z2)
    for c, poly in pairs:
        direct = direct + poly.scale(c)
    assert got == direct
    # the kernel itself, on keys that are not exponent vectors
    got = _combination(keyed)
    assert got == reference_combination(keyed)
    for key in {key for _, v in keyed for key in v}:
        assert got.get(key, S_ZERO) == sum((c * v.get(key, S_ZERO) for c, v in keyed), S_ZERO)


@settings(max_examples=150, deadline=None)
@given(qt_polys(max_terms=8), st.integers(min_value=1, max_value=30))
def test_pack_round_trip(p, stride):
    stride = max(stride, 1 + max((a for a, _ in p.terms), default=0))
    bits = max(map(abs, p.terms.values()), default=0).bit_length() + 2
    assert _unpack(_pack(p.terms, bits, stride), bits, stride) == p.terms


def test_packed_sum_edge_cases():
    x1 = MultiPoly.variable(Z2, 0)
    assert linear_combination(Z2, []).is_zero()
    assert linear_combination(Z2, [(S_ZERO, x1), (S_ONE, MultiPoly.zero(Z2))]).is_zero()
    huge = QTScalar(QTPolynomial({(40, 0): 2 ** 100, (0, 7): -(2 ** 100) + 1}),
                    QTPolynomial({(1, 0): 3, (0, 0): -1}))
    assert linear_combination(Z2, [(huge, x1), (-huge, x1)]).is_zero()
    assert linear_combination(Z2, [(huge, x1), (S_ONE, x1)]) == x1.scale(huge + 1)


def test_packed_sum_matches_dict_sum_on_the_super_restriction():
    for d in (3, 4, 5):
        for lam in pt.partitions_of(d):
            pairs = []
            for mu, c in macdonald_p_expansion(lam).coeffs.items():
                s_mu, cleared = _cleared_representatives(mu, 2, 2)
                pairs.append((c / s_mu, cleared))
            space = VarSpace.xy(2, 2)
            got = linear_combination(space, pairs)
            want = reference_linear_combination(space, pairs)
            assert got == want, lam
            _same(list(got.terms.values()), [want.terms[e] for e in got.terms])


def test_packed_sum_matches_dict_sum_on_monomial_renderings():
    for lam in pt.partitions_of(5):
        e = SymExpansion("m", 5, macdonald_m_expansion(lam, 5))
        pairs = [(c, monomial_symmetric(mu, 5)) for mu, c in e.coeffs.items()]
        assert from_monomial_expansion(e) == reference_linear_combination(VarSpace.z(5), pairs)


# ---------------------------------------------------------------------------
# products of polynomials
# ---------------------------------------------------------------------------

# distinct denominators, some sharing a factor, so the two clearings differ;
# 1 half the time, so that some factors are denominator-free
product_dens = st.one_of(st.just(P_ONE), st.sampled_from([
    QTPolynomial({(0, 0): 3}), QTPolynomial({(0, 0): 1, (1, 0): -1}),
    QTPolynomial({(1, 0): 1, (0, 1): -1}), QTPolynomial({(0, 0): 1, (2, 0): -1}),
    QTPolynomial({(1, 1): 2, (0, 0): 1})]))


@st.composite
def fractional_polys(draw, space):
    """Polynomials of a few terms with small exponents, so the term products
    meet and their sums can cancel; the zero polynomial and constants are
    among them."""
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        e = tuple(draw(st.integers(min_value=0, max_value=2)) for _ in range(space.dim))
        terms[e] = QTScalar(draw(qt_polys(max_terms=2, coeffs=st.integers(-3, 3))),
                            draw(product_dens))
    return MultiPoly(space, terms)


PRODUCT_SPACES = [VarSpace.z(1), Z2, VarSpace.xy(1, 1), VarSpace.xy(2, 1)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PRODUCT_SPACES).flatmap(
    lambda space: st.tuples(fractional_polys(space), fractional_polys(space))))
def test_product_matches_the_term_by_term_product(factors):
    f, g = factors
    for a, b in ((f, g), (f, -f), (f + g, f - g)):
        got = a * b
        want = reference_product(a, b)
        assert got == want
        _same([got.terms[e] for e in want.terms], list(want.terms.values()))


def test_product_edge_cases():
    for space in PRODUCT_SPACES:
        x, y = MultiPoly.variable(space, 0), MultiPoly.variable(space, space.dim - 1)
        c = QTScalar(QTPolynomial({(1, 0): 1}), QTPolynomial({(0, 0): 1, (0, 1): -1}))
        zero, one = MultiPoly.zero(space), MultiPoly.one(space)
        f = x.scale(c) + y.scale(S_ONE / 3)
        cases = [(f, zero), (zero, f), (zero, zero), (one, f), (f, one),
                 (MultiPoly.constant(space, c), f), (f, MultiPoly.constant(space, c.inverse())),
                 # the cross terms cancel to zero
                 (x + y.scale(c), x - y.scale(c)), (f, f), (f * f, f),
                 # denominator-free factors, and one over a denominator
                 (x + y, x - y), ((x + y) * (x + y), x + y), (f, x + y.scale(S_ONE - S_T))]
        for a, b in cases:
            got, want = a * b, reference_product(a, b)
            assert got == want, (space, a, b)
            _same([got.terms[e] for e in want.terms], list(want.terms.values()))
        assert (f * zero).is_zero()
        assert f * MultiPoly.constant(space, c.inverse()) == f.scale(c.inverse())
        if space.dim > 1:
            assert (x + y.scale(c)) * (x - y.scale(c)) == x * x - (y * y).scale(c * c)
            assert len(((x + y.scale(c)) * (x - y.scale(c))).terms) == 2


# ---------------------------------------------------------------------------
# solves with a cleared right-hand side
# ---------------------------------------------------------------------------

def test_solve_square_matches_reference_on_the_m_to_p_systems():
    for d in range(1, 7):
        mus, table = _power_in_monomial_matrix(d)
        matrix = [[table[mu].get(lam, S_ZERO) for mu in mus] for lam in mus]
        for lam in mus:
            coeffs = macdonald_m_expansion(lam, d)
            rhs = [coeffs.get(nu, S_ZERO) for nu in mus]
            _same(solve_square(matrix, [rhs])[0], reference_solve_square(matrix, rhs))


def test_m_to_p_inverse_matches_the_per_expansion_solve():
    for d in range(7):
        for lam in pt.partitions_of(d):
            e = SymExpansion("m", d, macdonald_m_expansion(lam, d))
            got = monomial_to_power_expansion(e).coeffs
            want = reference_monomial_to_power(e)
            assert list(got) == list(want), lam
            _same(list(got.values()), list(want.values()))
    # several degrees in one expansion, and a monomial that is not a P_lam
    e = SymExpansion("m", 4, {(): S_ONE, (2, 1): qt_ratio(2), (1, 1, 1, 1): S_ONE})
    got = monomial_to_power_expansion(e).coeffs
    want = reference_monomial_to_power(e)
    assert list(got) == list(want)
    _same(list(got.values()), list(want.values()))


def test_m_to_p_matches_the_dict_sum():
    for d in range(7):
        for lam in pt.partitions_of(d):
            for coeffs in (macdonald_m_expansion(lam, d), {lam: S_ONE}):
                e = SymExpansion("m", d, coeffs)
                got = monomial_to_power_expansion(e).coeffs
                want = reference_dict_m_to_p(e)
                assert list(got) == list(want), lam
                _same(list(got.values()), list(want.values()))
    e = SymExpansion("m", 4, {(): S_ONE, (2, 1): qt_ratio(2), (1, 1, 1, 1): S_ONE})
    assert monomial_to_power_expansion(e).coeffs == reference_dict_m_to_p(e)


def _random_scalar(rng):
    def poly():
        return QTPolynomial({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)
                             for _ in range(rng.randint(0, 3))})
    den = poly()
    while den.is_zero():
        den = poly()
    return QTScalar(poly(), den)


def test_solve_square_matches_reference_on_random_systems():
    rng = random.Random(20070)
    solved = 0
    for _ in range(40):
        matrix = [[_random_scalar(rng) for _ in range(3)] for _ in range(3)]
        rhs = [_random_scalar(rng) for _ in range(3)]
        try:
            want = reference_solve_square(matrix, rhs)
        except SingularSystemError:
            try:
                solve_square(matrix, [rhs])[0]
            except SingularSystemError:
                continue
            raise AssertionError("the cleared solve found a solution of a singular system")
        _same(solve_square(matrix, [rhs])[0], want)
        solved += 1
    assert solved >= 30


# ---------------------------------------------------------------------------
# the triangular eigen-solve
# ---------------------------------------------------------------------------

def test_m_expansion_matches_the_per_term_sum():
    for d in range(1, 7):
        for N in sorted({d, max(d - 2, 1)}):
            for lam in pt.partitions_of(d, max_length=N):
                got = macdonald_m_expansion(lam, N)
                want = reference_m_expansion(lam, N)
                assert list(got) == list(want), (lam, N)
                _same(list(got.values()), list(want.values()))


def test_eigen_solve_matches_the_cleared_dict_sum():
    for d in range(1, 7):
        for N in sorted({d, max(d - 2, 1)}):
            for lam in pt.partitions_of(d, max_length=N):
                got = macdonald_m_expansion(lam, N)
                want = reference_cleared_m_expansion(lam, N)
                assert list(got) == list(want), (lam, N)
                _same(list(got.values()), list(want.values()))


# ---------------------------------------------------------------------------
# interpolation values and evaluation
# ---------------------------------------------------------------------------

def test_interpolation_values_match_the_dict_sum():
    shapes = pt.partitions_up_to(5)
    for lam in shapes:
        for mu in shapes:
            got = shifted.interpolation_value(lam, mu)
            want = reference_interpolation_value(lam, mu)
            assert got == want, (lam, mu)
            _same([got], [want])


def test_evaluate_matches_the_dict_sum():
    rng = random.Random(20071)
    for N in (1, 2, 3):
        space = VarSpace.z(N)
        for _ in range(15):
            f = MultiPoly(space, {tuple(rng.randint(0, 3) for _ in range(N)): _random_scalar(rng)
                                  for _ in range(rng.randint(0, 5))})
            point = [_random_scalar(rng) for _ in range(N)]
            got = f.evaluate(point)
            _same([got], [reference_evaluate(f, point)])
    # a sum that cancels to zero
    x = MultiPoly.variable(VarSpace.z(2), 0)
    y = MultiPoly.variable(VarSpace.z(2), 1)
    assert (x - y).evaluate([S_ONE / 3, S_ONE / 3]).is_zero()


# ---------------------------------------------------------------------------
# the gcds the super path makes
# ---------------------------------------------------------------------------

COUNT_PROBE = """
import macrui
from macrui import partitions as pt, scalar
calls = 0
gcd_cofactors = scalar._gcd_cofactors
def counted(a, b):
    global calls
    if len(a.terms) > 1 and len(b.terms) > 1:
        calls += 1
    return gcd_cofactors(a, b)
scalar._gcd_cofactors = counted
{work}
print(calls)
"""


def _nonmonomial_gcds(work):
    """The gcds with no monomial argument that ``work`` takes, in a fresh
    process so that no cache is warm."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", COUNT_PROBE.format(work=work)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_super_restriction_gcd_count_is_pinned():
    # the seven super restrictions of weight 5 at (2, 2); 427 before the
    # cleared sums, 305 before the eigenvalue was built as a polynomial, 277
    # before the generator images were written with cleared coefficients,
    # and a rise here means a reduction came back
    assert _nonmonomial_gcds("for lam in pt.partitions_of(5):\n"
                             "    macrui.super_macdonald(lam, 2, 2)") == 236


def test_kernel_function_identity_gcd_count_is_pinned():
    # its products of polynomials with fractional coefficients took 1,299
    # while each term product and each addition was reduced on its own
    assert _nonmonomial_gcds("from macrui.verify import _truncated_kernel_function_identity\n"
                             "assert _truncated_kernel_function_identity()[0]") == 151
